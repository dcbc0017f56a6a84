"""Operation timeouts: bounded blocking, cancellation, no stale entries."""

import time

import pytest

from repro.compiler import compile_source
from repro.runtime.ports import mkports
from repro.runtime.tasks import spawn
from repro.util.errors import ProtocolTimeoutError, ReproError


def pipe(**options):
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P", **options)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    return conn, outs[0], ins[0]


def test_recv_timeout_on_empty_fifo(concurrency="regions"):
    conn, out, inp = pipe(concurrency=concurrency)
    t0 = time.monotonic()
    with pytest.raises(ProtocolTimeoutError) as ei:
        inp.recv(timeout=0.15)
    elapsed = time.monotonic() - t0
    assert 0.1 < elapsed < 2.0
    assert "timed out" in str(ei.value)
    conn.close()


def test_send_timeout_on_full_fifo(concurrency="regions"):
    conn, out, inp = pipe(concurrency=concurrency)
    out.send(1)  # fifo1 now full
    with pytest.raises(ProtocolTimeoutError):
        out.send(2, timeout=0.15)
    conn.close()


def test_timeout_error_is_both_timeout_and_repro_error():
    conn, out, inp = pipe()
    with pytest.raises(TimeoutError):
        inp.recv(timeout=0.05)
    with pytest.raises(ReproError):
        inp.recv(timeout=0.05)
    conn.close()


def test_timed_out_recv_leaves_no_stale_queue_entry(concurrency="regions"):
    """After a recv times out, a later send must NOT be consumed by the
    withdrawn operation — the value stays available to the next receiver."""
    conn, out, inp = pipe(concurrency=concurrency)
    with pytest.raises(ProtocolTimeoutError):
        inp.recv(timeout=0.1)
    out.send("kept")
    ok, v = inp.try_recv()
    assert ok and v == "kept"
    conn.close()


def test_timed_out_send_leaves_no_stale_queue_entry(concurrency="regions"):
    """After a send times out, a later recv must NOT observe its value."""
    conn, out, inp = pipe(concurrency=concurrency)
    out.send("first")  # fills the fifo
    with pytest.raises(ProtocolTimeoutError):
        out.send("stale", timeout=0.1)
    assert inp.recv(timeout=1.0) == "first"
    # the timed-out offer is gone: the fifo is now empty
    ok, v = inp.try_recv()
    assert not ok
    conn.close()


def test_connector_default_timeout(concurrency="regions"):
    conn, out, inp = pipe(concurrency=concurrency, default_timeout=0.1)
    with pytest.raises(ProtocolTimeoutError):
        inp.recv()
    conn.close()


def test_per_call_timeout_overrides_default(concurrency="regions"):
    conn, out, inp = pipe(concurrency=concurrency, default_timeout=30.0)
    t0 = time.monotonic()
    with pytest.raises(ProtocolTimeoutError):
        inp.recv(timeout=0.1)
    assert time.monotonic() - t0 < 5.0
    conn.close()


def test_completion_before_timeout_wins(concurrency="regions"):
    conn, out, inp = pipe(concurrency=concurrency)

    def late_producer():
        time.sleep(0.05)
        out.send(42)

    h = spawn(late_producer)
    assert inp.recv(timeout=5.0) == 42
    h.join(5)
    conn.close()


def test_timeout_attributes(concurrency="regions"):
    conn, out, inp = pipe(concurrency=concurrency)
    with pytest.raises(ProtocolTimeoutError) as ei:
        inp.recv(timeout=0.05)
    assert ei.value.timeout == 0.05
    assert ei.value.vertex  # names the boundary vertex it waited on
    conn.close()


@pytest.mark.parametrize("concurrency", ["global", "workers"])
@pytest.mark.parametrize("scenario", [
    test_recv_timeout_on_empty_fifo,
    test_send_timeout_on_full_fifo,
    test_timed_out_recv_leaves_no_stale_queue_entry,
    test_timed_out_send_leaves_no_stale_queue_entry,
    test_connector_default_timeout,
    test_per_call_timeout_overrides_default,
    test_completion_before_timeout_wins,
    test_timeout_attributes,
], ids=lambda f: f.__name__)
def test_timeout_scenarios_on_every_backend(scenario, concurrency):
    """The blocked-wait loop and its deadline are the host's; only *how* an
    expired operation is withdrawn differs (under the owner region's lock
    in-process, a ``withdraw`` request over the ring for workers).  One
    extra test rather than a parameter on each, so the scenarios keep their
    ids."""
    scenario(concurrency)
