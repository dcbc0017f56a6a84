"""NAS Parallel Benchmarks substrate (paper §V.C, Fig. 13).

The paper's second experiment series takes the Java reference implementation
of the NPB, strips each program's tasks of all synchronization and
communication, and replaces it with (operations on) outports and inports.
This package is our Python equivalent: each program exists in three
variants —

* ``run_serial`` — single-task reference (also the verification oracle),
* ``run_original`` — hand-written synchronization over the basic
  Foster–Chandy channels (the paper's "original programs"),
* ``run_reo`` — the same task code over compiler-generated connectors
  (the paper's "Reo-based variants").

The two parallel variants share one body per program and differ only in
the communication kit it runs over (``OriginalKit`` or ``ReoKit``,
:mod:`repro.npb.common`).

Problem classes follow NPB's S < W < A < B < C ladder with dimensions scaled
for a pure-Python/numpy substrate (see EXPERIMENTS.md for the mapping).
Implemented programs: the kernels CG (master–slaves), FT (all-to-all
transpose), IS (gather/scatter ranking), MG (halo exchange) and EP; the
applications LU (master–slaves + pipeline) and SP (transpose ADI).  CG and
LU are the two shown in Fig. 13.
"""

from repro.npb.randlc import Randlc, randlc_stream, A_DEFAULT, SEED_DEFAULT
from repro.npb.common import BenchResult, ProblemClass
from repro.npb import cg, lu, ep, is_, mg, ft, sp

__all__ = [
    "Randlc",
    "randlc_stream",
    "A_DEFAULT",
    "SEED_DEFAULT",
    "BenchResult",
    "ProblemClass",
    "cg",
    "lu",
    "ep",
    "is_",
    "mg",
    "ft",
    "sp",
]
