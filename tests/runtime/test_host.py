"""The one wake primitive of a parked operation (``runtime/host.py``).

``host.wake_slot()`` / ``host.wake(slot)`` are the wake protocol of
``engine.py`` and of the emitted steps; behaviour per wake path is pinned in
test_wake_paths.py, this file pins the primitive itself.
"""

import pathlib

from repro.compiler import steps
from repro.compiler.steps import region_sources
from repro.connectors import library
from repro.runtime import engine, host
from repro.runtime.ports import mkports


def test_one_wake_primitive_and_no_event_per_operation():
    """A parked operation's wake slot is ``host.wake_slot()`` in the engine
    and in emitted steps: engine.py names no ``Event`` at all."""
    for module in (engine, steps):
        assert module.wake is host.wake
    assert engine.wake_slot is host.wake_slot
    assert "Event" not in pathlib.Path(engine.__file__).read_text()

    conn = library.connector("Merger", 2)
    conn.connect(*mkports(2, 1))
    assert conn.stats()["compiled_regions"] == 1
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
