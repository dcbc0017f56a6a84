"""Shared utilities: error taxonomy, naming, union-find.

These helpers are deliberately dependency-free; every other subpackage of
:mod:`repro` may import from here, never the other way around.
"""

from repro.util.errors import (
    ReproError,
    CompilationError,
    CompilationBudgetExceeded,
    ParseError,
    ScopeError,
    WellFormednessError,
    ConstraintError,
    RuntimeProtocolError,
    DeadlockError,
    PortClosedError,
)
from repro.util.naming import FreshNames, qualify
from repro.util.unionfind import UnionFind

__all__ = [
    "ReproError",
    "CompilationError",
    "CompilationBudgetExceeded",
    "ParseError",
    "ScopeError",
    "WellFormednessError",
    "ConstraintError",
    "RuntimeProtocolError",
    "DeadlockError",
    "PortClosedError",
    "FreshNames",
    "qualify",
    "UnionFind",
]
