"""Experiment E7 — §V.B future work: bounded state caches with eviction.

"The idea is to evict previously computed states from the cache if the
cache is full …; the disadvantage is the possible need to recompute states
…; the advantage is that arbitrarily large state spaces can be handled.
We leave implementing such caches, and studying effective eviction
policies, for future work."

We implement that future work: drive a connector whose run revisits many
distinct states (a FifoChain under a bursty producer) with unbounded, LRU,
FIFO and random caches, and measure throughput plus recomputation counts.

Runs under the default ``compiled="auto"``: the cache is the JIT region's one
per-state table, so its capacity bounds the compiled entries as well
(docs/DECISIONS.md rows 2 and 4).  CI runs this file in ``bench-smoke``.
"""

import pytest

from repro.automata.lazy import FIFOCache, LRUCache, RandomCache
from repro.connectors import library
from repro.runtime.ports import mkports

N = 10
ROUNDS = 40

CACHES = {
    "unbounded": None,
    "lru-16": lambda: LRUCache(16),
    "fifo-16": lambda: FIFOCache(16),
    "random-16": lambda: RandomCache(16, seed=1),
    "lru-4": lambda: LRUCache(4),
}


def bursty_run(cache_factory) -> dict:
    """Fill the chain to varying levels so many distinct control states are
    visited and revisited."""
    conn = library.connector("FifoChain", N, cache_factory=cache_factory)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    sent = 0
    for r in range(ROUNDS):
        burst = (r % N) + 1
        for _ in range(burst):
            outs[0].send(sent)
            sent += 1
        for _ in range(burst):
            ins[0].recv()
    stats = conn.stats()
    conn.close()
    return stats


@pytest.mark.parametrize("cache", sorted(CACHES))
def test_cache_policies(benchmark, cache):
    factory = CACHES[cache]
    stats = benchmark.pedantic(bursty_run, args=(factory,),
                               rounds=1, iterations=1)
    benchmark.extra_info["expansions"] = stats["expansions"]
    benchmark.extra_info["cached_states"] = stats["cached_states"]


def test_bounded_caches_bound_memory_and_recompute(once):
    def run():
        return {name: bursty_run(f) for name, f in CACHES.items()}

    stats = once(run)
    print()
    for name, s in stats.items():
        print(f"  {name:<10} expansions={s['expansions']:>5} "
              f"resident states={s['cached_states']:>4} "
              f"compiled={s['compiled_states']:>4}")
    # unbounded: every state expanded exactly once, and kept compiled
    needed = stats["unbounded"]["expansions"]
    assert needed == 92
    assert needed == stats["unbounded"]["cached_states"]
    assert needed == stats["unbounded"]["compiled_states"]
    # bounded: memory bounded by capacity, compiled entries included...
    for name, factory in CACHES.items():
        if factory is None:
            continue
        capacity = factory().capacity
        assert stats[name]["cached_states"] <= capacity
        assert stats[name]["compiled_states"] <= capacity
        # ...at the price of recomputation
        assert stats[name]["expansions"] > needed
    # ...which grows as capacity shrinks
    assert stats["lru-4"]["expansions"] >= stats["lru-16"]["expansions"]
