"""This host's thread hand-off floor, beside what a connector pays (EXPERIMENTS.md
E12): two pinned threads ping-pong over a raw lock, a reused ``threading.Event``
and an ``Event`` per park, then run Merger/2 through the ports.  Never a gate."""
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
from repro.connectors import library  # noqa: E402
from repro.runtime.host import wake_slot  # noqa: E402
from repro.runtime.ports import mkports  # noqa: E402

ROUNDS = 20_000
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def duel(*bodies, handoffs=2 * ROUNDS):
    """Best of three: µs per hand-off, the two bodies on a core each."""
    def pinned(body, cpu):
        if CPUS:
            os.sched_setaffinity(threading.get_native_id(), {CPUS[cpu]})
        body()
    def once():
        threads = [threading.Thread(target=pinned, args=(b, -i)) for i, b in enumerate(bodies)]
        t0 = time.perf_counter()
        [t.start() for t in threads]
        [t.join() for t in threads]
        return (time.perf_counter() - t0) / handoffs * 1e6
    return min(once() for _ in range(3))


def pingpong(make, wait, wake, per_park=False):
    """A token handed back and forth over one slot per thread."""
    slots = [make(), make()]
    def body(me):
        for _ in range(ROUNDS):
            if me == 0:
                wake(slots[1])
            if per_park:
                make()  # where a park allocated it: after the wake, GIL held
            wait(slots[me])
            if me == 1:
                wake(slots[0])
    return duel(lambda: body(0), lambda: body(1))


if __name__ == "__main__":
    event = (threading.Event, lambda e: (e.wait(), e.clear()), lambda e: e.set())
    print(f"nproc {os.cpu_count()}, pinned to {CPUS[:1] + CPUS[-1:]}, python {sys.version.split()[0]}")
    print(f"raw lock        {pingpong(wake_slot, lambda s: s.acquire(), lambda s: s.release()):6.1f} us/hand-off")
    print(f"reused Event    {pingpong(*event):6.1f} us/hand-off")
    print(f"Event per park  {pingpong(*event, per_park=True):6.1f} us/hand-off")
    conn = library.connector("Merger", 2)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    us = duel(lambda: [o.send(i) for i in range(ROUNDS // 2) for o in outs],
              lambda: [ins[0].recv() for _ in range(ROUNDS)], handoffs=ROUNDS)
    print(f"Merger/2 ports  {us:6.1f} us/step, {conn.stats()['parks'] / conn.stats()['steps']:.2f} parks/step")
    conn.close()
