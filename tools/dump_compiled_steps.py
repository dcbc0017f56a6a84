#!/usr/bin/env python
"""Dump the compiled step tier's emitted source for a library connector.

Builds the named connector, connects it (AOT composition so every state is
compiled up front, not just the states a run happens to visit), and prints
each generated step function with its region/state/label header — the
exact code the engine executes on the hot path (docs/COMPILER.md §4).

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
        for idx, state, label, source in rows:
            print(f"\n# --- region {idx}  state {state!r}  label {label}")
            print(source, end="")
    finally:
        conn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
