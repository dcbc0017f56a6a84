"""The basic Foster–Chandy model (paper §II, Figs. 1–2)."""

import pytest

from repro.runtime.channels import Channel, ChannelInport, ChannelOutport, channel
from repro.runtime.tasks import TaskGroup, spawn
from repro.util.errors import PortClosedError, RuntimeProtocolError


def test_nonblocking_send_blocking_recv():
    out, inp = channel()
    # sends never block (unbounded buffer, §II)
    for i in range(1000):
        out.send(i)
    assert [inp.recv() for _ in range(1000)] == list(range(1000))


def test_fig2_example1_with_auxiliary_communication():
    """The paper's Fig. 2: Ex. 1 in the basic model needs an auxiliary
    channel from C back to B to enforce the A-before-B ordering."""
    ao, ci1 = channel()
    bo, ci2 = channel()
    x, y = channel()  # auxiliary

    events = []

    def a(out):
        out.send("msg-a")

    def b(y_in, out):
        o = "msg-b"
        y_in.recv()  # auxiliary: wait until C has A's message
        out.send(o)

    def c(in1, in2, x_out):
        o1 = in1.recv()
        events.append(o1)
        x_out.send(0)  # auxiliary
        o2 = in2.recv()
        events.append(o2)

    with TaskGroup() as g:
        g.spawn(a, ao)
        g.spawn(b, y, bo)
        g.spawn(c, ci1, ci2, x)
    assert events == ["msg-a", "msg-b"]


def test_unconnected_ports_rejected():
    with pytest.raises(PortClosedError):
        ChannelOutport("o").send(1)
    with pytest.raises(PortClosedError):
        ChannelInport("i").recv()


def test_double_connect_rejected():
    out, inp = ChannelOutport(), ChannelInport()
    Channel().connect(out, inp)
    with pytest.raises(PortClosedError):
        Channel().connect(out, ChannelInport())


def test_close_unblocks_receiver():
    out, inp = channel()

    def blocked():
        with pytest.raises(PortClosedError):
            inp.recv()
        return True

    h = spawn(blocked)
    import time

    time.sleep(0.02)
    out.close()
    assert h.join(5)


def test_send_after_close():
    out, _ = channel()
    out.close()
    with pytest.raises(PortClosedError):
        out.send(1)


def test_capacity_must_be_positive():
    with pytest.raises(RuntimeProtocolError):
        channel(capacity=0)


def test_receiver_close_wakes_parked_sender():
    """Closing the receiving end without a cause ends a send parked on a
    full bounded channel with PortClosedError."""
    out, inp = channel(capacity=1)
    out.send(0)

    def parked():
        with pytest.raises(PortClosedError):
            out.send(1, timeout=10.0)
        return True

    h = spawn(parked)
    import time

    time.sleep(0.02)
    inp.close()
    assert h.join(5)


def test_close_on_full_bounded_channel_does_not_block():
    """The close sentinel bypasses the bound: closing never waits for
    room, and the buffered value is still delivered before the close."""
    out, inp = channel(capacity=1)
    out.send("last")
    out.close()
    assert inp.recv() == "last"
    with pytest.raises(PortClosedError):
        inp.recv(timeout=5.0)


def test_closes_count_as_withdrawals():
    """A send refused by the receiver's close and a receive that meets the
    sender's close are withdrawn: the metered ledger still balances."""
    from repro.fuzz.oracle import conservation_violations
    from repro.runtime.metrics import MetricsRegistry

    reg = MetricsRegistry()
    out, inp = channel(capacity=1, metrics=reg, name="full")
    out.send(0)
    inp.close()
    with pytest.raises(PortClosedError):
        out.send(1, timeout=5.0)
    out, inp = channel(metrics=reg, name="closed")
    out.close()
    with pytest.raises(PortClosedError):
        inp.recv(timeout=5.0)
    assert conservation_violations(reg) == []


def test_channel_takes_capacity_metrics_and_name_only():
    """The basic model carries no overload policy: shedding, rejection and
    dead letters are connector policies."""
    import inspect

    import repro.runtime.channels as channels

    for fn in (Channel.__init__, channel):
        params = [p for p in inspect.signature(fn).parameters if p != "self"]
        assert params == ["capacity", "metrics", "name"]
    with pytest.raises(TypeError):
        channel(capacity=1, policy="shed_newest")
    assert not hasattr(channels, "OverloadPolicy")
    assert not hasattr(channels, "DeadLetterBuffer")
