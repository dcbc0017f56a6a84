"""The seam between the host-side protocol and the two engine backends.

``runtime/host.py`` is the one home of the party registry, the deadlock
detector, the blocked-wait loop, checkpoint validation and the boundary
remap; ``CoordinatorEngine`` and ``WorkerCoordinatorEngine`` only supply
hooks.  Behaviour is pinned per backend in test_failures.py,
test_timeouts.py and test_recovery.py; this file pins the structure, so a
backend cannot quietly grow its own copy back.
"""

import ast
import pathlib

from repro.compiler import steps
from repro.compiler.steps import region_sources
from repro.connectors import library
from repro.runtime import engine, host, workers
from repro.runtime.engine import CoordinatorEngine
from repro.runtime.host import EngineHost
from repro.runtime.ports import mkports
from repro.runtime.workers import WorkerCoordinatorEngine

SHARED = (
    "register_party", "unregister_party", "party_progress", "_mark_active",
    "_wait_blocked", "_maybe_deadlock", "_require_quiescent",
    "_validate_checkpoint", "_remap_boundary", "_check_open",
    "dead_letters", "shed_count", "draining", "_normalize_policies",
)
HOOKS = (
    "_freeze", "_pending_count", "_pending_ops", "_stuck_count",
    "_stuck_state", "_deliver_deadlock", "_wake_all_locked",
    "_withdraw_expired",
)


def test_backends_define_hooks_not_the_shared_protocol():
    for backend in (CoordinatorEngine, WorkerCoordinatorEngine):
        assert issubclass(backend, EngineHost)
        own = vars(backend)
        assert not [name for name in SHARED if name in own], backend
        assert not [name for name in HOOKS if name not in own], backend


def test_shared_names_have_one_class_body_in_the_engine_modules():
    """Over every class in host.py, engine.py and workers.py — worker-side
    helpers included — each shared name is defined once, in EngineHost."""
    homes = {name: [] for name in SHARED}
    for module in (host, engine, workers):
        path = pathlib.Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if getattr(item, "name", None) in homes:
                        homes[item.name].append(f"{path.name}:{node.name}")
    assert homes == {name: ["host.py:EngineHost"] for name in SHARED}


def test_workers_imports_the_tick_and_nothing_of_the_registry():
    assert not hasattr(workers, "_Party")
    assert not hasattr(workers, "stuck_error")
    assert workers._WAIT_TICK is host._WAIT_TICK
    tree = ast.parse(pathlib.Path(workers.__file__).read_text())
    assigned = [
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    ]
    assert "_WAIT_TICK" not in assigned


def test_one_wake_primitive_and_no_event_per_operation():
    """A parked operation's wake slot is ``host.wake_slot()`` in both
    backends and in emitted steps: engine.py names no ``Event`` at all, and
    the only two ``threading.Event()`` left in workers.py are per worker
    (``ready``) and per engine (``_quiet``) — never per operation."""
    for module in (engine, workers, steps):
        assert module.wake is host.wake
    assert engine.wake_slot is workers.wake_slot is host.wake_slot

    def event_calls(module):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        homes = []
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    for node in ast.walk(fn):
                        if (isinstance(node, ast.Attribute)
                                and node.attr == "Event"):
                            homes.append(f"{cls.name}.{fn.name}")
        return homes

    assert "Event" not in pathlib.Path(engine.__file__).read_text()
    assert event_calls(workers) == [
        "_Handle.__init__", "WorkerCoordinatorEngine.__init__"]

    conn = library.connector("Merger", 2, compiled="require")
    conn.connect(*mkports(2, 1))
    sources = [source for *_row, source in region_sources(conn.engine)]
    conn.close()
    assert sources and all("_wake(_e)" in source for source in sources)
    assert not [s for s in sources if "Event" in s or ".set()" in s]


def test_a_wake_slot_is_one_shot_rearmed_by_the_wait():
    slot = host.wake_slot()
    assert not slot.acquire(False)  # armed: a waiter would park
    host.wake(slot)
    host.wake(slot)  # a second wake before the waiter ran: swallowed
    assert slot.acquire(True, 1.0)  # the wait returns at once ...
    assert not slot.acquire(False)  # ... and has re-armed the slot
    host.wake(slot)
    assert slot.acquire(True, 1.0)
