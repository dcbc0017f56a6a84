"""One failure contract across both programming models.

The generalized model (ports + connector) and the basic model
(:mod:`repro.runtime.channels`) expose the same task-facing API, so a task
written against one can be re-wired to the other.  This file pins the
contract: for every observable failure mode, both models raise the *same*
error types — timeouts, closed ports, peer crashes, and the normalized
``(completed, value)`` form of ``try_recv``.

Each case builds a 1-producer/1-consumer pipe in both models: a compiled
``Fifo1`` connector and a basic channel.
"""

import time

import pytest

from repro.compiler import compile_source
from repro.fuzz.oracle import conservation_violations
from repro.runtime import host
from repro.runtime.channels import ChannelInport, ChannelOutport, channel
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.ports import mkports
from repro.runtime.tasks import SupervisedTaskGroup
from repro.util.errors import (
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
    RuntimeProtocolError,
)

pytestmark = pytest.mark.fault_stress

MODELS = ("ports", "channels")


@pytest.fixture
def short_grace(monkeypatch):
    """A 10 ms deadlock confirmation window, for the cases a connector
    resolves through its deadlock detector."""
    monkeypatch.setattr(host, "DETECTION_GRACE", 0.01)


def make_pipe(model, **options):
    """A connected (outport, inport, closer) triple in the given model."""
    if model == "ports":
        conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
            "P", **options
        )
        outs, ins = mkports(1, 1)
        conn.connect(outs, ins)
        return outs[0], ins[0], conn.close
    out, inp = channel()
    return out, inp, lambda: None


@pytest.mark.parametrize("model", MODELS)
def test_send_recv_roundtrip(model):
    out, inp, close = make_pipe(model)
    out.send("x")
    assert inp.recv() == "x"
    close()


@pytest.mark.parametrize("model", MODELS)
def test_recv_timeout_raises_protocol_timeout(model):
    out, inp, close = make_pipe(model)
    with pytest.raises(ProtocolTimeoutError) as exc_info:
        inp.recv(timeout=0.05)
    assert isinstance(exc_info.value, TimeoutError)  # generic handlers work
    # The pipe is still usable after a timeout (the op was withdrawn).
    out.send("late")
    assert inp.recv(timeout=5.0) == "late"
    close()


@pytest.mark.parametrize("model", MODELS)
def test_try_recv_normalized_form(model):
    out, inp, close = make_pipe(model)
    assert inp.try_recv() == (False, None)
    out.send(41)
    ok, value = inp.try_recv()
    assert (ok, value) == (True, 41)
    assert inp.try_recv() == (False, None)
    close()


@pytest.mark.parametrize("model", MODELS)
def test_try_send(model):
    out, inp, close = make_pipe(model)
    assert out.try_send("v") is True  # one free buffer slot in both models
    assert inp.recv() == "v"
    close()


@pytest.mark.parametrize("model", MODELS)
def test_unconnected_port_raises_runtime_protocol_error(model):
    if model == "ports":
        out, inp = mkports(1, 1)
        out, inp = out[0], inp[0]
    else:
        out, inp = ChannelOutport("o"), ChannelInport("i")
    with pytest.raises(RuntimeProtocolError):
        out.send(1)
    with pytest.raises(RuntimeProtocolError):
        inp.recv()


@pytest.mark.parametrize("model", MODELS)
def test_send_after_close_raises_port_closed(model):
    out, inp, close = make_pipe(model)
    out.close()
    with pytest.raises(PortClosedError):
        out.send(1)
    close()


@pytest.mark.parametrize("model", MODELS)
def test_closed_pipe_surfaces_to_receiver(model):
    """Receiving from a pipe whose transport was shut down raises
    PortClosedError in both models (connector close vs. sender-side
    channel close — each model's way of ending the conversation)."""
    out, inp, close = make_pipe(model)
    if model == "ports":
        close()
    else:
        out.close()
    with pytest.raises(PortClosedError):
        inp.recv(timeout=5.0)
    close()


@pytest.mark.usefixtures("short_grace")
@pytest.mark.parametrize("model", MODELS)
def test_close_with_cause_delivers_that_cause(model):
    """A port failed *with a cause* delivers that cause to the blocked
    peer — through party-registration + detection in the connector model,
    through the channel itself in the basic model."""
    import threading

    out, inp, close = make_pipe(model)
    out.set_owner(object(), name="sender")
    inp.set_owner(object(), name="receiver")
    observed = []

    def receive():
        try:
            inp.recv(timeout=10.0)
        except Exception as exc:  # noqa: BLE001 - asserted below
            observed.append(exc)

    t = threading.Thread(target=receive)
    t.start()
    time.sleep(0.05)
    out.fail(PeerFailedError("sender", RuntimeError("boom")))
    t.join(15.0)
    assert not t.is_alive()
    assert len(observed) == 1 and isinstance(observed[0], PeerFailedError)
    assert observed[0].task == "sender"
    close()


# --------------------------------------------------------------------------
# Bounded pipes: a full one makes a send wait, in both models
# --------------------------------------------------------------------------


def make_bounded_pipe(model, **options):
    """A one-slot pipe in the given model: a one-place Fifo1 connector, or
    a basic channel with ``capacity=1``.  Either way one value fits and the
    next send waits (the connector's default ``block`` policy).  Shedding
    and rejection are connector policies only (DECISIONS row 26;
    ``tests/runtime/test_overload.py``)."""
    if model == "ports":
        conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
            "P", default_timeout=5.0, **options
        )
        outs, ins = mkports(1, 1)
        conn.connect(outs, ins)
        return outs[0], ins[0], conn.close
    out, inp = channel(capacity=1, **options)
    return out, inp, out.close


@pytest.mark.parametrize("model", MODELS)
def test_full_bounded_pipe_send_times_out(model):
    out, inp, close = make_bounded_pipe(model)
    out.send(1)
    with pytest.raises(ProtocolTimeoutError):
        out.send(2, timeout=0.05)
    assert out.try_send(2) is False  # refused, not queued
    assert inp.recv() == 1  # nothing was lost
    assert inp.try_recv() == (False, None)  # the refused value is gone
    out.send(3)  # the timed-out op was withdrawn — the pipe still works
    assert inp.recv() == 3
    close()


@pytest.mark.parametrize("model", MODELS)
def test_metered_pipe_counts_what_does_not_complete(model):
    """Every submitted operation ends completed or withdrawn, so the
    conservation law holds after an empty probe, a send that times out on
    the full pipe and a receive that times out."""
    reg = MetricsRegistry()
    out, inp, close = make_bounded_pipe(model, metrics=reg)
    assert inp.try_recv() == (False, None)
    out.send(1)
    with pytest.raises(ProtocolTimeoutError):
        out.send(2, timeout=0.05)
    assert conservation_violations(reg) == []
    assert inp.recv(timeout=5.0) == 1
    with pytest.raises(ProtocolTimeoutError):
        inp.recv(timeout=0.05)
    assert conservation_violations(reg) == []
    close()


@pytest.mark.parametrize("model", MODELS)
def test_full_bounded_pipe_send_resumes_when_receiver_takes(model):
    import threading

    out, inp, close = make_bounded_pipe(model)
    out.send(1)
    t = threading.Thread(target=out.send, args=(2,))
    t.start()
    time.sleep(0.05)
    assert t.is_alive()  # parked on the full pipe
    assert inp.recv(timeout=5.0) == 1
    t.join(5.0)
    assert not t.is_alive()  # room was made: the parked send completed
    assert inp.recv(timeout=5.0) == 2
    close()


@pytest.mark.usefixtures("short_grace")
@pytest.mark.parametrize("model", MODELS)
def test_failed_receiver_wakes_parked_sender_with_its_cause(model):
    """A send parked on a full pipe observes the receiver's failure cause
    instead of waiting for room that will never be made."""
    import threading

    out, inp, close = make_bounded_pipe(model)
    out.set_owner(object(), name="sender")
    inp.set_owner(object(), name="receiver")
    out.send(1)
    observed = []

    def send():
        try:
            out.send(2, timeout=10.0)
        except Exception as exc:  # noqa: BLE001 - asserted below
            observed.append(exc)

    t = threading.Thread(target=send)
    t.start()
    time.sleep(0.05)
    inp.fail(PeerFailedError("receiver", RuntimeError("boom")))
    t.join(15.0)
    assert not t.is_alive()
    assert len(observed) == 1 and isinstance(observed[0], PeerFailedError)
    assert observed[0].task == "receiver"
    close()


@pytest.mark.parametrize("model", MODELS)
def test_bounded_pipe_keeps_order_under_backpressure(model):
    """A producer far ahead of its consumer is paced by the bound; every
    value arrives once, in order."""
    import threading

    out, inp, close = make_bounded_pipe(model)
    values = list(range(40))
    t = threading.Thread(target=lambda: [out.send(v) for v in values])
    t.start()
    got = [inp.recv(timeout=5.0) for _ in values]
    t.join(5.0)
    assert not t.is_alive()
    assert got == values
    close()


@pytest.mark.usefixtures("short_grace")
@pytest.mark.parametrize("model", MODELS)
def test_supervised_crash_propagates_as_peer_failure(model):
    """The same supervised program observes the same error type in both
    models when a peer task dies: PeerFailedError naming the dead task."""
    out, inp, close = make_pipe(model)
    observed = []

    def consumer():
        try:
            while True:
                inp.recv(timeout=10.0)
        except PeerFailedError as exc:
            observed.append(exc)

    def crasher():
        raise RuntimeError("worker died")

    with pytest.raises(RuntimeError, match="worker died"):
        with SupervisedTaskGroup() as g:
            g.spawn(consumer, ports=[inp], name="consumer")
            g.spawn(crasher, ports=[out], name="worker")
    close()
    assert len(observed) == 1
    assert observed[0].task == "worker"
    assert isinstance(observed[0].cause, RuntimeError)
