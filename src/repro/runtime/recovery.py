"""Self-healing protocols: checkpoints, restart policies, re-parametrization.

PR 1 made failures *detected* (timeouts, :class:`PeerFailedError`, precise
deadlock detection); this module makes them *survivable*.  It provides the
three data types the recovery machinery is built from:

* :class:`Checkpoint` — a snapshot of one engine's complete protocol state
  (region control states, round-robin cursors, buffer contents, step count,
  registered-party registry) taken at a *quiescent point*; see
  :meth:`repro.runtime.engine.CoordinatorEngine.checkpoint`.  A checkpoint
  is connector-independent data: it can be restored into the same engine or
  into a freshly built, structurally identical one
  (:meth:`~repro.runtime.connector.RuntimeConnector.restore`).

* :class:`RestartPolicy` — how :class:`~repro.runtime.tasks.SupervisedTaskGroup`
  relaunches a crashed task: bounded retries with exponential backoff and
  *deterministic seeded jitter* (the same seed + task name + attempt always
  produces the same delay, so fault-injection runs stay reproducible).
  While a task restarts, its ports stay bound and its party registration
  stays live — peers block instead of being poisoned with
  :class:`~repro.util.errors.PeerFailedError`.

* :class:`DepartureReport` — what happened when a party left *permanently*
  (retries exhausted, or an explicit
  :meth:`~repro.runtime.connector.RuntimeConnector.leave`): which vertices
  were removed, how the connector was re-parametrized (n → n−1 via the
  parametrized compilation path, see
  :func:`repro.compiler.parametrized.shrink_bindings`), and which buffered
  values could not be migrated.

Buffer migration across a re-parametrization is name-based with an index
shift: internal names carry one ``@i`` index per enclosing iteration
(``prod``) dimension, so when party ``k`` of ``n`` departs, a surviving
buffer ``b@j`` (``j > k``) becomes ``b@{j-1}`` in the arity-``n−1``
instance.  Contents whose name cannot be mapped (the departing party's own
buffers, or multi-index names) are *dropped and reported*, never silently
kept under a wrong identity.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

#: Matches a singly-indexed internal name: ``base@j`` with one integer index.
_SINGLE_INDEX = re.compile(r"^(?P<base>.*)@(?P<index>\d+)$")


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionState:
    """One region's restorable control state.

    ``kind`` is the composition, ``"eager"`` (ahead of time: one
    component, the composed automaton) or ``"lazy"``; ``state`` is the
    tuple of component states; ``rr`` is the region's round-robin fairness
    cursor table — ``(state, index)`` pairs, one per visited control state
    — captured so a restored run makes the same nondeterministic choices
    as the original would have.
    """

    kind: str
    state: object
    rr: tuple


@dataclass(frozen=True)
class Checkpoint:
    """A quiescent-point snapshot of one engine's protocol state.

    Immutable; ``buffers`` maps buffer name to a tuple of its contents and
    ``parties`` records the registered-party registry (name, sorted
    vertices) at snapshot time — informational, since live task identities
    cannot be persisted, but enough to check that a restored topology has
    the same shape.

    ``boundary`` is the engine's boundary signature at snapshot time —
    ``(sorted sources, sorted sinks)``.  Restore validates it against the
    target engine, so a checkpoint taken before a re-parametrization
    (:meth:`~repro.runtime.connector.RuntimeConnector.leave`) fails with a
    typed :class:`~repro.util.errors.CheckpointError` when restored into
    the re-parametrized (different-arity) instance, instead of silently
    restoring control states under the wrong signature.  The empty default
    keeps hand-built checkpoints (no signature recorded) restorable.
    """

    connector: str
    regions: tuple[RegionState, ...]
    buffers: dict[str, tuple]
    steps: int
    parties: tuple[tuple[str, tuple[str, ...]], ...] = ()
    boundary: tuple = ()

    def __str__(self) -> str:  # pragma: no cover - debug aid
        held = sum(len(v) for v in self.buffers.values())
        return (
            f"<Checkpoint {self.connector or 'connector'} @ step {self.steps}: "
            f"{len(self.regions)} regions, {held} buffered values>"
        )


# --------------------------------------------------------------------------
# Restart policies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded, reproducible restarts for supervised tasks.

    A crashed task is relaunched at most ``max_retries`` times; attempt
    ``a`` (1-based) waits ``backoff_base * backoff_factor**(a-1)`` seconds,
    capped at ``backoff_max``, scaled by ``1 ± jitter`` with a jitter draw
    seeded from ``(seed, task name, attempt)`` — deterministic per task and
    attempt, yet decorrelated across tasks so a gang of restarts does not
    stampede in lock-step.

    ``restart_on`` bounds *which* failures are worth retrying.  The default
    retries any ``Exception``; pass e.g. ``(InjectedFault, OSError)`` to
    narrow it.  ``BaseException``s that are not ``Exception``s
    (``KeyboardInterrupt``, ``SystemExit``) are never retried.
    """

    max_retries: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    restart_on: tuple = (Exception,)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def should_restart(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt ``attempt`` (1-based) may proceed after ``exc``."""
        if attempt > self.max_retries:
            return False
        if not isinstance(exc, Exception):
            return False
        return isinstance(exc, tuple(self.restart_on))

    def delay(self, task: str, attempt: int) -> float:
        """Backoff before restart ``attempt`` (1-based), jittered but
        deterministic for a given (seed, task, attempt)."""
        raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        raw = min(raw, self.backoff_max)
        if self.jitter == 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{task}:{attempt}")
        return raw * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


# --------------------------------------------------------------------------
# Departures and re-parametrization bookkeeping
# --------------------------------------------------------------------------


@dataclass
class DepartureReport:
    """Outcome of one permanent party departure.

    ``task`` is the departing task's name ("" for explicit :meth:`leave`
    calls outside supervision); ``cause`` the exception that exhausted the
    restart budget, if any.  ``removed_vertices`` are the boundary vertices
    that left the signature; ``vertex_map`` maps every *surviving* old
    boundary vertex to its new name; ``dropped_buffers`` holds buffered
    values that could not be migrated (name → contents tuple) — a nonempty
    value means protocol state was lost and the application should check
    its own invariants (e.g. a ring token held by the departed party).
    """

    task: str
    removed_vertices: tuple[str, ...]
    vertex_map: dict[str, str] = field(default_factory=dict)
    dropped_buffers: dict[str, tuple] = field(default_factory=dict)
    cause: BaseException | None = None

    def __str__(self) -> str:  # pragma: no cover - debug aid
        drops = ""
        if self.dropped_buffers:
            lost = sum(len(v) for v in self.dropped_buffers.values())
            drops = f", dropped {lost} buffered values"
        return (
            f"<Departure of {self.task or 'party'}: removed "
            f"{', '.join(self.removed_vertices)}{drops}>"
        )


def index_name_map(index_map: dict[int, int]) -> Callable[[str], str | None]:
    """Build the internal-name mapper for a re-parametrization.

    ``index_map`` maps surviving old 1-based iteration indices to their new
    values (dropped indices absent).  The returned function maps an old
    internal (vertex/buffer) name to its new name, or ``None`` when the
    name belongs to a dropped index or carries several index dimensions
    (which a single shift cannot soundly remap).
    """

    def mapper(name: str) -> str | None:
        m = _SINGLE_INDEX.match(name)
        if m is None:
            # ``base@i,j`` (multi-index) names are unmappable; plain names
            # survive unchanged.
            return None if "@" in name else name
        new_index = index_map.get(int(m.group("index")))
        if new_index is None:
            return None
        return f"{m.group('base')}@{new_index}"

    return mapper


def _occupancy_vectors(automaton) -> dict[int, dict[str, int]] | None:
    """Map each reachable control state to its buffer-occupancy vector.

    Walks the automaton from its initial state applying Push (+1) / Pop (−1)
    effects on its *own* buffers, seeded from each :class:`BufferSpec`'s
    initial contents.  Returns ``None`` when some state is reachable with
    two different vectors, or has a transition that would overfill or
    underflow a buffer from its vector (an unbounded fifo's one state)
    — then occupancy is not tracked in control state (data-dependent
    guards govern instead) and reconciliation must not touch the state.
    """
    from repro.automata.constraint import Pop, Push

    owned = {b.name: b for b in automaton.buffers}
    if not owned:
        return None
    vectors: dict[int, dict[str, int]] = {
        automaton.initial: {n: len(s.initial) for n, s in owned.items()}
    }
    frontier = [automaton.initial]
    while frontier:
        state = frontier.pop()
        vec = vectors[state]
        for t in automaton.outgoing(state):
            nvec = dict(vec)
            for e in t.effects:
                name = getattr(e, "buffer", None)
                if name not in nvec:
                    continue
                if isinstance(e, Push):
                    nvec[name] += 1
                    cap = owned[name].capacity
                    if cap is not None and nvec[name] > cap:
                        return None
                elif isinstance(e, Pop):
                    nvec[name] -= 1
                    if nvec[name] < 0:
                        return None
            prev = vectors.get(t.target)
            if prev is None:
                vectors[t.target] = nvec
                frontier.append(t.target)
            elif prev != nvec:
                return None
    return vectors


def _reconcile_one(automaton, current_state, store, dropped: dict):
    """Pick the control state of ``automaton`` consistent with ``store``.

    Returns the state to install, or ``None`` to keep ``current_state``.
    When *no* state is compatible with the (migrated) buffer contents, the
    automaton's buffers are reset to their spec-initial contents, displaced
    values are recorded in ``dropped``, and the initial state is returned —
    a consistent (if lossy) protocol state beats a silently corrupt one.
    """
    vectors = _occupancy_vectors(automaton)
    if vectors is None:
        return None
    owned = {b.name: b for b in automaton.buffers}
    target = {name: store.occupancy(name) for name in owned}
    if vectors.get(current_state) == target:
        return None
    matches = sorted(s for s, v in vectors.items() if v == target)
    if matches:
        # Ties (several states with identical occupancy) resolve to the
        # lowest-numbered state — deterministic, and in the connectors this
        # library builds occupancy determines control state uniquely.
        return matches[0]
    snap = store.snapshot()
    for name, spec in owned.items():
        cur = tuple(snap.get(name, ()))
        if cur != tuple(spec.initial):
            if cur:
                dropped[name] = cur
            store.set_contents(name, spec.initial)
    return automaton.initial


def reconcile_region_states(regions, store) -> dict[str, tuple]:
    """Align freshly built regions' control states with migrated buffers.

    :func:`migrate_buffers` carries buffer *contents* into the
    re-instantiated connector, but the fresh regions start in their initial
    control states — which, for automata that track buffer occupancy in
    control state (every fifo-built connector), do not enable any transition
    that could ever deliver the migrated values.  This pass computes each
    automaton's state↔occupancy correspondence and moves each component of
    each region's product to the state matching the store.  Returns
    buffer contents that had to be dropped because no control state could
    account for them (merged into the departure report by the caller).
    """
    dropped: dict[str, tuple] = {}
    for region in regions:
        new_state = list(region.state)
        for i, comp in enumerate(region.lazy.automata):
            state = _reconcile_one(comp, new_state[i], store, dropped)
            if state is not None:
                new_state[i] = state
        region.state = tuple(new_state)
    return dropped


def migrate_buffers(
    old_contents: dict[str, tuple],
    new_store,
    name_map: Callable[[str], str | None],
) -> tuple[dict[str, str], dict[str, tuple]]:
    """Carry buffer contents across a re-parametrization.

    Every old buffer whose mapped name exists in ``new_store`` (a
    :class:`~repro.runtime.buffers.BufferStore`) has its contents installed
    there — including *empty* contents, which matters: the fresh instance's
    initialized buffers (e.g. a token ring's first fifo) must not keep
    their initial token when the migrated protocol state says the token is
    elsewhere.  Returns ``(migrated, dropped)``: old→new names that were
    carried, and old name → contents for nonempty buffers that could not
    be (no mapping, unknown target, or over the target's capacity).
    """
    migrated: dict[str, str] = {}
    dropped: dict[str, tuple] = {}
    new_names = set(new_store.names())
    for old_name, items in old_contents.items():
        target = name_map(old_name)
        if target is None or target not in new_names:
            if items:
                dropped[old_name] = tuple(items)
            continue
        try:
            new_store.set_contents(target, items)
        except Exception:
            dropped[old_name] = tuple(items)
            continue
        migrated[old_name] = target
    return migrated, dropped
