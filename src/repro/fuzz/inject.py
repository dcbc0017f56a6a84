"""Intentional bug injection — proving the oracle has teeth.

A fuzzer whose oracle never fires is indistinguishable from one that works;
these injections doctor a *live* connector into a subtly wrong scheduler so
the test suite (and ``python -m repro fuzz run --inject ...``) can assert
the pipeline catches and shrinks a real, oracle-visible defect.

Injections are applied to one mode only (:func:`repro.fuzz.harness.run_all`)
and must be re-applied after a checkpoint/restore rebuilds the connector —
the harness handles that by injecting inside its connector factory.
"""

from __future__ import annotations


def rr_window(conn) -> None:
    """Blind every region to the first entry of its candidate list.

    This models the classic round-robin window bug — an off-by-one in the
    cursor arithmetic that makes the scan start one candidate late.  A step
    that happens to sit first in its state's candidate list is never
    considered: the operations that needed it stay pending forever, which
    the oracle reports as incomplete operations (and, downstream, as
    truncated per-port streams) in the injected mode only.  (Not the last
    entry: a medium automaton is a maximal product, whose last step at a
    state is often the joint step of members that may as well fire one
    after the other, so blinding it shows nowhere.)"""
    for region in conn.engine.regions:
        orig = region.candidates

        def doctored(_orig=orig):
            return _orig()[1:]

        # Instance attribute shadows the bound method for this region only.
        region.candidates = doctored
        # Take the region off the compiled step tier: compiled rows never
        # consult candidates() at fire time, which would render the
        # injected bug invisible (and the oracle toothless) under a
        # compiled mode.
        region.drop_rows()
        region.compiled = False


def misplaced_segment(conn) -> None:
    """An off-by-one in building a row from its predecessor's: the first redone
    segment's step functions land one slot late.  Compiled rows only."""
    compiler = conn.engine._step_compiler
    compile_state = compiler.compile_state

    def doctored(state, expansion, came=None):
        row = compile_state(state, expansion, came)
        if expansion[2]:
            k, entries = min(expansion[2]), row.segments[2]  # the row's own
            entries[k] = entries[k][-1:] + entries[k][:-1]
            row.entries = sum(entries, ())
        return row

    compiler.compile_state = doctored


misplaced_segment.mode = "regions-compiled"

#: Registry used by the CLI's ``--inject`` flag and replay files.
INJECTIONS = {"rr_window": rr_window, "misplaced_segment": misplaced_segment}
