"""The Sturm-count kernels of the finite-difference eigensolver.

The Sturm count (the number of eigenvalues of a symmetric tridiagonal T
below a shift s) is the inner loop of the whole finite-difference validation
engine.  There are two kernels:

* :func:`sturm_counts`, the solver's kernel: odd-even (cyclic) reduction
  (Buzbee, Golub & Nielson 1970).  Sylvester's law of inertia and
  Haynsworth's inertia additivity give count(T - s) = (negative pivots of
  the even rows, whose block is diagonal) + count(Schur complement on the
  odd rows), and that Schur complement is again tridiagonal and half the
  size.  Each step is vectorised over shifts x rows, so its cost is
  proportional to the number of shifts it carries.  Once rows x shifts
  is down to _TAIL, a serial LDL^T loop over the shifted rows counts the
  rest, which is cheaper there than the fixed numpy cost of the last
  steps.  By the Schur determinant formula det(T - s) is the product of
  all the pivots formed, so the kernel also returns log|det(T - s)|, which
  the eigensolver uses for its regula falsi steps.
* :func:`_serial_counts`, the row-by-row LDL^T sign sequence (Kahan 1966),
  which like the reduction carries |e| and never forms e^2.  It is backward
  stable but loops over the rows in Python, one shift at a time, at about
  0.08 us per row and shift on a 2-core Xeon.

Parallel counts such as the reduction are not backward stable (Demmel,
Dhillon & Ren 1995).  The reduction loses the count where a small pivot of
an eliminated row spreads a large rank-one update over both its neighbours,
whose later cancellation leaves only rounding error: on the free Laplacian,
whose half-size blocks share its eigenvalues, a shift 1e-10 from an
eigenvalue grows the pivots by 2.5e8 and miscounts.  So :func:`sturm_counts`
recounts serially every shift whose pivots grow beyond _GROWTH times the
largest entry of T - s, and the eigensolver certifies its final brackets
with one serial pass.
"""

from __future__ import annotations

import math

import numpy as np

USE_NUMBA = False  # read by perfbench/provenance.py; there is no numba kernel

# Largest pivot growth, relative to the largest entry of T - s, that the
# reduction may reach before its count is replaced by the serial count.  The
# 64-point free Laplacian miscounts at growth 2.5e8 (a shift 1e-10 below its
# second eigenvalue) and counts right at 2.5e7.  On the 366 shifts that
# `validate --suite all` counts the largest growth is 1.0 (no pivot exceeds
# max |d - s|): the asinh split keeps every shift off the constant part of
# the FD diagonal, and no shift is recounted serially.
_GROWTH = 1e4

# Size (rows x shifts) of the Schur complement at or below which the serial
# recurrence finishes the count.  On a 2-core Xeon a reduction step costs some
# 30-40 us of numpy calls whatever its size and the recurrence 0.2-0.3 us per
# row and shift; on 8 to 256 rows with 1 to 12 shifts the recurrence was the
# faster finish below about 500 to 1000 row-shifts.
_TAIL = 512


def _pivmin(off_max: float) -> float:
    """LAPACK's pivot floor (``dstebz``) 1e-300 max(1, max e^2), as (1e-300 m) m, finite where
    e^2 overflows; a Python float, as a numpy scalar would carry the serial loop into numpy."""
    m = max(1.0, float(off_max))
    return 1e-300 * m * m


def sturm_counts(diag: np.ndarray, off: np.ndarray,
                 shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number of eigenvalues below each shift, and log|det(T - shift)|, by odd-even reduction.

    The matrix is taken as stored, diagonal ``diag`` and off-diagonal
    ``off``.  The reduction, and the serial loop that finishes it on rows
    already shifted (q = r - e (e / q)), carry |e| and never form e^2.
    Pivots with magnitude below pivmin = 1e-300 max(1, max e^2) are replaced
    by -pivmin (LAPACK's convention), which keeps the count deterministic at
    exact pivot zeros: an eigenvalue equal to a shift is counted.  The
    log-determinant is the sum of ln|pivot| over every pivot, with the same
    replacement.  Shifts whose pivots grow past _GROWTH times max |T - s|,
    overflow included, are counted again by :func:`_serial_counts` and get a
    NaN log-determinant.
    """
    shifts = np.ascontiguousarray(shifts, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64)
    t = diag[None, :] - shifts[:, None]  # (shifts, rows); each shift is independent
    e = np.abs(np.asarray(off, dtype=np.float64))[None, :]
    off_max = e.max(initial=0.0)
    pivmin = _pivmin(off_max)
    widest = np.maximum(diag.max() - shifts, shifts - diag.min())  # max |d - s|
    bound = _GROWTH * np.maximum(widest, off_max)
    counts = np.zeros(shifts.shape[0], dtype=np.int64)
    logdet = np.zeros(shifts.shape[0])
    largest = np.zeros(shifts.shape[0])
    # Every entry is a pivot at some step or an entry of the serial tail, so
    # the largest of them measures the growth; overflow and inf - inf stay
    # within a shift that it then marks.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t.size > _TAIL:  # t: the Schur complement left to count, its rows shifted
            even, kept = t[:, 0::2], t[:, 1::2]
            size = np.abs(even)
            largest = np.maximum(largest, size.max(axis=1))
            tiny = size < pivmin  # a pivot of magnitude < pivmin counts as -pivmin
            p = np.where(tiny, -pivmin, even) if tiny.any() else even
            counts += (p < 0.0).sum(axis=1)
            logdet += np.log(np.maximum(size, pivmin, out=size), out=size).sum(axis=1)
            left, right = e[:, 0::2], e[:, 1::2]
            width, rows = right.shape[1], kept.shape[1]
            ratio = right / p[:, 1:1 + width]
            e = ratio[:, :rows - 1] * e[:, 2::2]  # its sign never matters
            d = left / p[:, :rows]
            d *= left
            np.subtract(kept, d, out=d)
            ratio *= right
            d[:, :width] -= ratio
            t = d
        largest = np.maximum(largest, np.abs(t).max(axis=1, initial=0.0))
        grown = ~(largest <= bound)  # NaN counts as grown
        tail = t.tolist()
        offs = np.broadcast_to(e, (shifts.shape[0], e.shape[1])).tolist()
    for i in np.flatnonzero(~grown).tolist():
        q, count, log = 1.0, 0, 0.0  # the LDL^T of the tail's rows, already shifted
        for r, e in zip(tail[i], [0.0] + offs[i]):
            q = r - e * (e / q)
            if q < pivmin:  # negative once a pivot of magnitude < pivmin is -pivmin
                if q > -pivmin:
                    q = -pivmin
                count += 1
            log += math.log(abs(q))
        counts[i] += count
        logdet[i] += log
    if grown.any():
        counts[grown] = _serial_counts(diag, off, shifts[grown])
        logdet[grown] = np.nan
    return counts, logdet


def _serial_counts(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift, via the row-by-row LDL^T signs.

    A pivot is q = d - shift - e (e / q): no e^2 is formed, and the ``pivmin`` rule of
    :func:`sturm_counts` keeps e / q <= 1e300 for every e of T.  Backward stable; a
    Python loop over the rows of each shift, so the solver calls it once per solve (its
    certificate) and :func:`sturm_counts` only for the shifts it cannot trust.
    """
    off = np.abs(np.asarray(off, dtype=np.float64))
    pivmin = _pivmin(off.max(initial=0.0))
    off = [0.0] + off.tolist()
    diag = np.asarray(diag, dtype=np.float64).tolist()
    counts = []
    for shift in np.asarray(shifts, dtype=np.float64).tolist():
        q, count = 1.0, 0
        for r, e in zip(diag, off):
            q = r - shift - e * (e / q)
            if q < pivmin:
                if q > -pivmin:
                    q = -pivmin
                count += 1
        counts.append(count)
    return np.array(counts, dtype=np.int64)
