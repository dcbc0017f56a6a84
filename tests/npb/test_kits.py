"""The communication kits: one body per NPB program, run over hand-written
synchronization (``OriginalKit``) or generated connectors (``ReoKit``)."""

import queue

import pytest

from repro.npb.common import OriginalKit, ReoKit
from repro.runtime.channels import ChannelInport, ChannelOutport
from repro.util.errors import PortClosedError


def test_original_kit_keeps_the_baseline_primitives():
    """Fig. 13's denominator: a ``SimpleQueue`` gather, a ``channel()`` per
    pipe, and a broadcast that sends on one channel per receiver."""
    with OriginalKit() as kit:
        sends, recv = kit.gather(3)
        assert type(recv.__self__) is queue.SimpleQueue
        assert all(send.__self__ is recv.__self__ for send in sends)

        send, recv = kit.pipe("p")
        assert type(send.__self__) is ChannelOutport
        assert type(recv.__self__) is ChannelInport

        bcast_send, recvs = kit.bcast(3)
        (links,) = (cell.cell_contents for cell in bcast_send.__closure__)
        assert [type(out) for out, _ in links] == [ChannelOutport] * 3
        assert [inp.recv for _, inp in links] == recvs
        bcast_send("x")
        assert [r() for r in recvs] == ["x"] * 3
    assert kit.variant == "original" and kit.stats() == {}


def test_reo_kit_forwards_options_and_closes_what_it_built():
    with ReoKit(compiled="off") as kit:
        send, recv = kit.pipe("p")
        kit.gather(3)
        send(1)
        assert recv() == 1
    stats = kit.stats()
    assert kit.variant == "reo" and list(stats) == ["p", "gather"]
    assert stats["p"]["steps"] == 2  # into the fifo and out of it
    assert stats["gather"]["step_tier"] == "off"
    with pytest.raises(PortClosedError):
        send(2)
