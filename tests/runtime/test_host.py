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

from repro.runtime import engine, host, workers
from repro.runtime.engine import CoordinatorEngine
from repro.runtime.host import EngineHost
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
