"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The Sturm-sequence eigenvalue count is the inner loop of the whole
finite-difference validation engine: one pass is O(N) and strictly
sequential in the matrix index.  The multisection eigensolver calls it
about 10-12 times per solve on grids up to N = 16384, with up to 256 shifts
per pass; the numpy recurrence costs about the same for 1 shift or 256,
while the numba kernel loops over the shifts.

Selection: numba is an optional dependency.  The numba kernel runs when
``CIRCLE_SQM_PURE_NUMPY`` is not ``1`` and ``import numba`` succeeds;
otherwise the numpy recurrence runs, with the loop over matrix rows in
Python and the shift batch vectorized.  ``USE_NUMBA`` records which backend
was chosen.  Both paths perform identical IEEE operations in identical
order, so they agree bit for bit; ``benchmarks/bench_sturm.py`` compares
their speed.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("CIRCLE_SQM_PURE_NUMPY", "0") != "1"

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # numba is optional: fall back to the numpy recurrence
        USE_NUMBA = False


def _sturm_counts_numpy(
    diag: np.ndarray, off_sq: np.ndarray, shifts: np.ndarray, pivmin: float
) -> np.ndarray:
    q = diag[0] - shifts
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        q = diag[i] - shifts - off_sq[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0.0
    return counts


if USE_NUMBA:

    @njit(cache=True, nogil=True)
    def _sturm_counts_numba(diag, off_sq, shifts, pivmin):  # pragma: no cover - jitted
        m = shifts.shape[0]
        n = diag.shape[0]
        counts = np.empty(m, dtype=np.int64)
        for k in range(m):
            x = shifts[k]
            q = diag[0] - x
            if -pivmin < q < pivmin:
                q = -pivmin
            cnt = 1 if q < 0.0 else 0
            for i in range(1, n):
                q = diag[i] - x - off_sq[i - 1] / q
                if -pivmin < q < pivmin:
                    q = -pivmin
                if q < 0.0:
                    cnt += 1
            counts[k] = cnt
        return counts


def sturm_counts(
    diag: np.ndarray, off_sq: np.ndarray, shifts: np.ndarray, pivmin: float
) -> np.ndarray:
    """Number of eigenvalues below each shift, via the LDL^T sign sequence.

    Pivots with magnitude below ``pivmin`` are replaced by ``-pivmin``
    (LAPACK's convention), which keeps the count deterministic at exact
    pivot zeros.
    """
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off_sq = np.ascontiguousarray(off_sq, dtype=np.float64)
    shifts = np.ascontiguousarray(shifts, dtype=np.float64)
    if USE_NUMBA:
        return _sturm_counts_numba(diag, off_sq, shifts, pivmin)
    return _sturm_counts_numpy(diag, off_sq, shifts, pivmin)
