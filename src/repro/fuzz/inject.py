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
    """Blind every region to the last entry of its candidate list.

    This models the classic round-robin window bug — an off-by-one in the
    cursor arithmetic that makes the scan stop one candidate short.  A step
    that happens to sit last in its state's candidate list is never
    considered: the operations that needed it stay pending forever, which
    the oracle reports as incomplete operations (and, downstream, as
    truncated per-port streams) in the injected mode only."""
    for region in conn.engine.regions:
        orig = region.candidates

        def doctored(_orig=orig):
            return _orig()[:-1]

        # Instance attribute shadows the bound method for this region only.
        region.candidates = doctored
        # Demote the region from the compiled step tier: compiled tables
        # never consult candidates() at fire time, which would render the
        # injected bug invisible (and the oracle toothless) under a
        # compiled mode.
        region.demote()


#: Registry used by the CLI's ``--inject`` flag and replay files.
INJECTIONS = {"rr_window": rr_window}
