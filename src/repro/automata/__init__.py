"""Constraint automata: the formal substrate of Reo (paper §III.B, Fig. 7).

A connector's behaviour is a finite-state automaton whose transitions are
labelled with *synchronization sets* (the vertices through which messages
synchronously flow) and *data constraints* (how the flowing data relate).
This package provides:

* :mod:`repro.automata.constraint` — data-constraint terms, atoms, effects;
* :mod:`repro.automata.automaton` — the automaton representation;
* :mod:`repro.automata.product` — eager synchronous product (Eq. 1);
* :mod:`repro.automata.lazy` — just-in-time product with pluggable state
  caches (paper §IV.D and the bounded-cache future work of §V.B);
* :mod:`repro.automata.simplify` — transition-command compilation
  ("commandification", the transition-local optimization of §V.B);
* :mod:`repro.automata.analysis` — reachability, deadlock detection and
  statistics;
* :mod:`repro.automata.partition` — the ref-[32] partitioning optimization
  that avoids exponential growth (§V.C point 3);
* :mod:`repro.automata.verify` — compile-time protocol checks (stand-in for
  the model-checking toolchain the paper cites in §II);
* :mod:`repro.automata.bisim` — strong/weak bisimulation checking.
"""

from repro.automata.constraint import (
    V,
    Buf,
    Const,
    App,
    Eq,
    Pred,
    NotFull,
    NotEmpty,
    Push,
    Pop,
    FunctionRegistry,
)
from repro.automata.automaton import (
    BufferSpec,
    Transition,
    ConstraintAutomaton,
)
from repro.automata.product import product, compose_outgoing
from repro.automata.lazy import (
    LazyProduct,
    UnboundedCache,
    LRUCache,
    FIFOCache,
    RandomCache,
)
from repro.automata.simplify import commandify, FiringPlan
from repro.automata.analysis import explore, stats, deadlock_states
from repro.automata.partition import partition_automata
from repro.automata.verify import Finding, VerificationReport, verify_protocol
from repro.automata.bisim import strongly_bisimilar, weakly_bisimilar

__all__ = [
    "V",
    "Buf",
    "Const",
    "App",
    "Eq",
    "Pred",
    "NotFull",
    "NotEmpty",
    "Push",
    "Pop",
    "FunctionRegistry",
    "BufferSpec",
    "Transition",
    "ConstraintAutomaton",
    "product",
    "compose_outgoing",
    "LazyProduct",
    "UnboundedCache",
    "LRUCache",
    "FIFOCache",
    "RandomCache",
    "commandify",
    "FiringPlan",
    "explore",
    "stats",
    "deadlock_states",
    "partition_automata",
    "Finding",
    "VerificationReport",
    "verify_protocol",
    "strongly_bisimilar",
    "weakly_bisimilar",
]
