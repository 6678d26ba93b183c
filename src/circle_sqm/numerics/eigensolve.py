"""Finite-difference Hamiltonian assembly and tridiagonal eigenvalues.

The discretization is the validation oracle for the analytic modules, so it
deliberately knows nothing about wavefunctions or spectra: it consumes only
the potential callable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, DomainError, SingularPointError
from ..systems import CircleGeometry, half_offset_grid, level_index, real_array
from ._kernels import _serial_counts, sturm_counts
from .residual import richardson_extrapolate

_REL_TOL = 1e-12  # bracket width, relative to the eigenvalue, at which it closes
_MAX_PASSES = 250  # cap on Sturm passes; a well-formed matrix needs far fewer
_LN2 = np.log(2.0)  # what the Illinois rule takes off a log-determinant that stays
# Scales of T (largest |Gershgorin bound|) with pivmin <= 1e-50 ||T||; beyond 1e+-290 both
# kernels agree on wrong counts at pivmin's 1e-300 floor, which the certificate passes.
_SCALES = (1e-250, 1e250)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix; its real 1-D entries are kept as float64 arrays."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diagonal", "off_diagonal"):
            entries = real_array(getattr(self, name), name)
            if entries.ndim != 1:
                raise DomainError(f"{name} must be 1-D, got shape {entries.shape}")
            object.__setattr__(self, name, entries)  # frozen: the converted entries
        if self.off_diagonal.shape[0] != self.diagonal.shape[0] - 1:
            raise DomainError("off_diagonal must have length len(diagonal) - 1")
        if not (np.all(np.isfinite(self.diagonal)) and np.all(np.isfinite(self.off_diagonal))):
            raise DomainError("matrix entries must be finite")

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]


def build_hamiltonian(potential, radius: float, domain: tuple[float, float],
                      n_nodes: int) -> TridiagonalMatrix:
    """Second-order FD discretization of H = -(1/(2 R^2)) d^2/dphi^2 + V.

    Nodes sit half a step inside both endpoints (which keeps cot and 1/sin^2
    finite on the grid); Dirichlet boundaries are closed with antisymmetric
    ghost values, i.e. the endpoint diagonal entries gain one extra
    1/(2 R^2 h^2).  Plainly truncating instead would shift the effective box by h and
    degrade eigenvalue convergence from O(h^2) to O(h).  ``n_nodes`` >= 16 half-offset nodes.
    """
    CircleGeometry(radius)  # refuses a radius that is not finite and > 0
    phi, h = half_offset_grid(domain, n_nodes, 16, "n_nodes")
    v = real_array(potential(phi), "potential values")
    if not np.all(np.isfinite(v)):
        raise SingularPointError("potential not finite on the grid")
    c = 1.0 / (2.0 * radius * radius * h * h)
    diag = 2.0 * c + v
    diag[0] += c
    diag[-1] += c
    off = np.full(phi.size - 1, -c)
    return TridiagonalMatrix(diagonal=diag, off_diagonal=off)


def lowest_eigenvalues(matrix: TridiagonalMatrix, count: int, *,
                       guess=None) -> np.ndarray:
    """The lowest ``count`` eigenvalues by Sturm counting, bisection and regula falsi.

    Every eigenvalue starts bracketed by the Gershgorin bounds.  Each pass
    counts one shift per distinct open bracket in one :func:`sturm_counts`
    pass (whose cost is proportional to its shifts); every count then
    tightens every bracket, as in LAPACK ``dstebz``: the j-th eigenvalue
    lies above each shift counting fewer than j eigenvalues and below each
    shift counting at least j.  A bracket whose ends count j - 1 and j
    eigenvalues holds the j-th alone, and once both ends also carry the
    log|det(T - s)| of the count, it takes a regula falsi step on the
    signed determinant instead of its midpoint while it is wider than
    eps ||T||, with ||T|| = max |Gershgorin bounds|, and with the Illinois
    rule (Dowell & Jarratt 1971): an end that stays while the other moves
    twice in a row has its determinant halved.  Every other bracket (not
    yet isolated, not halved by its last two passes, or narrower than
    eps ||T||) is split in two.  One wider than 2 min(|lo|, |hi|) + u,
    with u = _REL_TOL ||T||, is split at u sinh((asinh(lo/u) + asinh(hi/u)) / 2),
    its midpoint on an asinh scale: near the geometric mean when both ends
    are far from zero on one side, near the midpoint within u of zero, and
    clamped like the regula falsi step.  So the Gershgorin interval, whose
    upper end is some 1e6 times the lowest level of an FD matrix, brackets
    that level within a factor of 2 in a few passes rather than some 20.
    The other brackets bisect.  A bracket closes once its width drops below
    _REL_TOL relative to the eigenvalue plus an absolute floor of
    0.03 eps ||T|| (so that eigenvalues crossing zero still terminate);
    the result is its midpoint.

    Both rules sit at the count's resolution.  A backward-stable Sturm
    count places a level only to about eps ||T|| (Kahan 1966; Demmel,
    Dhillon & Ren 1995): on the FD matrices of the validation suites this
    solver and LAPACK ``dstebz`` differ by 0.02-0.06 eps ||T||, so a
    narrower close buys no accuracy, and within eps ||T|| of a level the
    log-determinant is rounding noise, so a falsi step there follows noise
    where a bisection still halves the bracket.

    ``count`` is a ``systems.level_index`` from 1 to the matrix dimension.  ``guess``, a
    ``systems.real_array`` of approximate levels such as those of a coarser grid, makes
    the first pass count the 2 ``count`` shifts g (1 +- 1e-3) +- the
    absolute floor instead; they tighten the brackets like any other
    counts, so a wrong guess costs passes but never changes a level.

    The reduction count is not backward stable, so two checks stand between
    it and the result.  A bracket that inverts (lo > hi, a count that is not
    monotone in the shift) raises ConvergenceError at once.  The closed
    brackets are then certified by one serial LDL^T pass: with
    tau = 8 eps ||T||, the j-th bracket must count
    fewer than j eigenvalues below lo_j - tau and at least j below
    hi_j + tau, or ConvergenceError is raised.  _MAX_PASSES caps the number
    of passes.  Deterministic: fixed bracketing, fixed shifts, no randomness.
    A matrix scaled outside _SCALES, the zero matrix too, raises ConvergenceError.
    """
    if not isinstance(matrix, TridiagonalMatrix):
        raise DomainError(f"matrix must be a TridiagonalMatrix, got {type(matrix).__name__}")
    count = level_index(count, 1, "count")
    if count > matrix.dimension:
        raise DomainError(f"count must be in 1..{matrix.dimension}, got {count}")
    d = matrix.diagonal
    e = matrix.off_diagonal
    reach = np.zeros(matrix.dimension)
    reach[:-1] += np.abs(e)
    reach[1:] += np.abs(e)
    lo_bound = float(np.min(d - reach))
    hi_bound = float(np.max(d + reach))
    scale = max(abs(lo_bound), abs(hi_bound))
    if not _SCALES[0] <= scale <= _SCALES[1]:
        raise ConvergenceError(f"matrix scale {scale:.3g} outside the envelope {_SCALES}")
    resolution = np.finfo(float).eps * scale  # what a backward-stable count resolves
    abs_floor = 0.03 * resolution
    unit = _REL_TOL * scale  # the asinh split is near-linear within it of zero

    lo = np.full(count, lo_bound)
    hi = np.full(count, hi_bound)
    # the count and log|det| at each end; the Gershgorin ends were never counted
    below_lo = np.full(count, -1)
    below_hi = np.full(count, -1)
    logdet_lo = np.full(count, np.nan)
    logdet_hi = np.full(count, np.nan)
    moved = np.zeros(count, dtype=np.int64)  # the end the last pass moved: -1 lo, 1 hi, else 0
    widths = (np.full(count, np.inf),) * 2  # each bracket before the last two passes
    want = np.arange(1, count + 1)
    rows = np.arange(count)
    shifts = None if guess is None else _guess_shifts(guess, count, abs_floor)
    for _ in range(_MAX_PASSES):
        width = hi - lo
        tol = _REL_TOL * np.maximum(np.abs(lo), np.abs(hi)) + abs_floor
        open_ = width > tol
        if not np.any(open_):
            _certify(d, e, lo, hi, 8.0 * resolution)
            return 0.5 * (lo + hi)
        if shifts is None:
            isolated = ((below_lo == want - 1) & (below_hi == want)
                        & np.isfinite(logdet_lo) & np.isfinite(logdet_hi))
            falsi = isolated & (width <= 0.5 * widths[0]) & (width > resolution)
            with np.errstate(over="ignore"):
                step = lo + width / (1.0 + np.exp(logdet_hi - logdet_lo))
            # a bracket spanning more than a factor of 3, or zero, splits on an asinh scale
            wide = ~falsi & (width > 2.0 * np.minimum(np.abs(lo), np.abs(hi)) + unit)
            step = np.where(falsi, step, unit * np.sinh(
                0.5 * (np.arcsinh(lo / unit) + np.arcsinh(hi / unit))))
            # at least half the closing width inside: an eigenvalue that close
            # to an end closes its bracket with this one count
            step = np.where(falsi | wide, np.clip(step, lo + 0.5 * tol, hi - 0.5 * tol),
                            0.5 * (lo + hi))
            shifts = _distinct(step[open_])
        widths = (widths[1], width)
        counts, logdet = sturm_counts(d, e, shifts)
        below = counts[None, :] < want[:, None]
        up = np.argmax(np.where(below, shifts, -np.inf), axis=1)
        down = np.argmin(np.where(below, np.inf, shifts), axis=1)
        up_moves = below[rows, up] & (shifts[up] > lo)
        down_moves = ~below[rows, down] & (shifts[down] < hi)
        lo = np.where(up_moves, shifts[up], lo)
        hi = np.where(down_moves, shifts[down], hi)
        if np.any(lo > hi):
            raise ConvergenceError(
                "Sturm counts not monotone in the shift: a bisection bracket inverted"
            )
        below_lo = np.where(up_moves, counts[up], below_lo)
        below_hi = np.where(down_moves, counts[down], below_hi)
        logdet_lo = np.where(up_moves, logdet[up], logdet_lo)
        logdet_hi = np.where(down_moves, logdet[down], logdet_hi)
        side = down_moves.astype(np.int64) - up_moves
        again = (side != 0) & (side == moved)  # Illinois: the other end stayed twice
        logdet_lo = np.where(again & (side > 0), logdet_lo - _LN2, logdet_lo)
        logdet_hi = np.where(again & (side < 0), logdet_hi - _LN2, logdet_hi)
        moved = side
        shifts = None
    raise ConvergenceError(
        f"Sturm iteration failed to converge in {_MAX_PASSES} passes (malformed matrix?)"
    )


def _guess_shifts(guess, count: int, floor: float) -> np.ndarray | None:
    """The warm-start shifts g (1 +- 1e-3) +- floor around each finite guess g."""
    guess = real_array(guess, "guess")
    if guess.shape != (count,):
        raise DomainError(f"guess must hold {count} levels, got shape {guess.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e305
        reach = 1e-3 * np.abs(guess) + floor
        shifts = np.concatenate((guess - reach, guess + reach))
    shifts = _distinct(shifts[np.isfinite(shifts)])
    return shifts if shifts.size else None


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a finite 1-D array, as ``np.unique`` returns them
    (sorted, the first of each run kept), without its masked-array check."""
    values = np.sort(values)
    first = np.ones(values.shape, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _certify(d, e, lo, hi, tau: float) -> None:
    """Refuse brackets that one serial LDL^T count does not confirm."""
    want = np.arange(1, lo.shape[0] + 1)
    counts = _serial_counts(d, e, np.concatenate((lo - tau, hi + tau)))
    below_lo, below_hi = counts[: lo.shape[0]], counts[lo.shape[0]:]
    if np.any(below_lo >= want) or np.any(below_hi < want):
        raise ConvergenceError(
            "the serial Sturm count does not confirm the bisection brackets"
        )


def eigenvalue_with_refinement(potential, radius: float, domain: tuple[float, float],
                               n_nodes: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues on grids (n_nodes, 2 n_nodes) plus their Richardson combination.

    Returns (coarse, fine, extrapolated); the extrapolation assumes the second-order stencil.
    """
    coarse = lowest_eigenvalues(build_hamiltonian(potential, radius, domain, n_nodes), count)
    fine = lowest_eigenvalues(build_hamiltonian(potential, radius, domain, 2 * n_nodes), count,
                              guess=coarse)
    extrapolated = richardson_extrapolate(coarse, fine)
    return coarse, fine, extrapolated
