"""The Sturm-count kernel of the finite-difference eigensolver.

The Sturm-sequence eigenvalue count (Kahan 1966) is the inner loop of the
whole finite-difference validation engine: one pass is O(N) and strictly
sequential in the matrix index.  The multisection eigensolver calls it
about 10-12 times per solve on grids up to N = 16384, with up to 256 shifts
per pass.  There is one implementation, a numpy recurrence with the loop
over matrix rows in Python and the shift batch vectorized, so a pass costs
about the same for 1 shift or 256.
"""

from __future__ import annotations

import numpy as np

USE_NUMBA = False  # read by perfbench/provenance.py; there is no numba kernel


def sturm_counts(
    diag: np.ndarray, off_sq: np.ndarray, shifts: np.ndarray, pivmin: float
) -> np.ndarray:
    """Number of eigenvalues below each shift, via the LDL^T sign sequence.

    Pivots with magnitude below ``pivmin`` are replaced by ``-pivmin``
    (LAPACK's convention), which keeps the count deterministic at exact
    pivot zeros: an eigenvalue equal to a shift is counted.
    """
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off_sq = np.ascontiguousarray(off_sq, dtype=np.float64)
    shifts = np.ascontiguousarray(shifts, dtype=np.float64)
    q = diag[0] - shifts
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        q = diag[i] - shifts - off_sq[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0.0
    return counts
