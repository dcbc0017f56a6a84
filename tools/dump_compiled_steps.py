#!/usr/bin/env python
"""Dump the compiled step tier's emitted source for a library connector.

Builds the named connector, connects it (AOT composition so every state is
compiled up front, not just the states a run happens to visit), and prints
each generated step function with its region/state/label header — the
exact code the engine executes on the hot path (docs/COMPILER.md §4).
Before that it drives a few lock-step rounds and prints, per state the
drain loop came back to, what it follows there: the row's by-vertex index
(vertex → how many pending vertices a post on it must find before a scan
can pay, with position and boundary width of each candidate naming it) and
which successor links are resolved, to which state.  States no round
revisited show neither, as on a live connector.

CI runs this for a couple of representative connectors and uploads the
output as an artifact whenever the compile-path tests fail, so a broken
build leaves the generated source behind for inspection.

Usage::

    python tools/dump_compiled_steps.py                 # EarlyAsyncMerger 2
    python tools/dump_compiled_steps.py Sequencer 3
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


WARMUP_ROUNDS = 4


def warm_up(conn) -> None:
    """Heads first, then tails, one outstanding operation per vertex."""
    engine = conn.engine
    handles = dict.fromkeys(conn.head_vertices + conn.tail_vertices)
    for round_ in range(WARMUP_ROUNDS):
        for v in handles:
            if handles[v] is None or handles[v].done:
                handles[v] = (engine.post_recv(v) if v in conn.head_vertices
                              else engine.post_send(v, round_))


def print_rows(engine) -> None:
    for region in engine.regions:
        if not region.compiled:
            continue
        for state, row in sorted(region.table.items(),
                                 key=lambda kv: repr(kv[0])):
            if row.by_vertex is None and set(row.links) <= {None}:
                continue
            links = " ".join("?" if nxt is None else repr(nxt.state)
                             for nxt in row.links)
            print(f"# row  region {region.idx}  state {state!r}  cursor "
                  f"{row.cursor}  links [{links}]")
            for v, least in sorted((row.by_vertex or {}).items()):
                named = ", ".join(
                    f"{i}/{len(e.boundary)}"
                    for i, e in enumerate(row.entries) if v in e.boundary)
                print(f"#   {v}: scan once {least} are pending; "
                      f"position/width {named}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else "EarlyAsyncMerger"
    n = int(argv[1]) if len(argv) > 1 else 2

    from repro.compiler.steps import region_sources
    from repro.connectors import library
    from repro.runtime.ports import mkports

    conn = library.connector(name, n, composition="aot", compiled="auto")
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    try:
        warm_up(conn)
        rows = region_sources(conn.engine)
        stats = conn.stats()
        print(f"# {name}/{n}: {stats['compiled_regions']} compiled "
              f"region(s), {stats['compiled_states']} state(s), "
              f"{len(rows)} compiled transition(s) sharing "
              f"{stats['emitted_steps']} step function(s)")
        if not rows:
            print("# (no compiled steps — every region demoted; "
                  "see docs/COMPILER.md §3)")
            return 1
        print_rows(conn.engine)
        for idx, state, label, source in rows:
            print(f"\n# --- region {idx}  state {state!r}  label {label}")
            print(source, end="")
    finally:
        conn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
