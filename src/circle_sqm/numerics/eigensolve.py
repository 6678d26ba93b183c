"""Finite-difference Hamiltonian assembly and tridiagonal eigenvalues.

The discretization is the validation oracle for the analytic modules, so it
deliberately knows nothing about wavefunctions or spectra: it consumes only
the potential callable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, DomainError, SingularPointError
from ._kernels import sturm_counts
from .residual import richardson_extrapolate

_SHIFTS = 256  # shifts per Sturm pass; a numpy pass costs about the same for 1 to 256
_REL_TOL = 1e-12  # bracket width, relative to the eigenvalue, at which it closes
_MAX_PASSES = 250  # cap on Sturm passes; a well-formed matrix needs far fewer


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix plus the grid it was built on."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid_step: float
    grid_offset: float

    def __post_init__(self) -> None:
        if self.off_diagonal.shape[0] != self.diagonal.shape[0] - 1:
            raise ValueError("off_diagonal must have length len(diagonal) - 1")
        if not (np.all(np.isfinite(self.diagonal)) and np.all(np.isfinite(self.off_diagonal))):
            raise ValueError("matrix entries must be finite")

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]

    def nodes(self) -> np.ndarray:
        return self.grid_offset + (np.arange(self.dimension) + 0.5) * self.grid_step


def build_hamiltonian(potential, radius: float, domain: tuple[float, float],
                      n_nodes: int) -> TridiagonalMatrix:
    """Second-order FD discretization of H = -(1/(2 R^2)) d^2/dphi^2 + V.

    Nodes sit half a step inside both endpoints (which keeps cot and 1/sin^2
    finite on the grid); Dirichlet boundaries are closed with antisymmetric
    ghost values, i.e. the endpoint diagonal entries gain one extra
    1/(2 R^2 h^2).  Plainly truncating instead would shift the effective box
    by h and degrade eigenvalue convergence from O(h^2) to O(h).
    """
    a, b = domain
    if not b > a:
        raise DomainError(f"empty domain: {domain!r}")
    if n_nodes < 16:
        raise DomainError(f"need at least 16 nodes, got {n_nodes}")
    h = (b - a) / n_nodes
    phi = a + (np.arange(n_nodes) + 0.5) * h
    v = np.asarray(potential(phi), dtype=float)
    if not np.all(np.isfinite(v)):
        raise SingularPointError("potential not finite on the grid")
    c = 1.0 / (2.0 * radius * radius * h * h)
    diag = 2.0 * c + v
    diag[0] += c
    diag[-1] += c
    off = np.full(n_nodes - 1, -c)
    return TridiagonalMatrix(diagonal=diag, off_diagonal=off, grid_step=h, grid_offset=a)


def lowest_eigenvalues(matrix: TridiagonalMatrix, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues by Sturm counting plus multisection.

    Every eigenvalue starts bracketed by the Gershgorin bounds.  Each pass
    spreads a budget of ``_SHIFTS`` evenly spaced interior points over the
    distinct brackets still open and counts them all in one Sturm pass (a
    numpy pass costs about the same for 1 shift or 256); every count then
    tightens every bracket, as in LAPACK ``dstebz``: the j-th eigenvalue lies
    above each shift counting fewer than j eigenvalues and below each shift
    counting at least j.  A bracket closes once its width drops below _REL_TOL
    relative to the eigenvalue, with an absolute floor of _REL_TOL^2 times the
    spectral radius (so that eigenvalues crossing zero still terminate); the
    result is its midpoint.  _MAX_PASSES caps the number of passes.
    Deterministic: fixed bracketing, fixed shifts, no randomness.
    """
    if count < 1 or count > matrix.dimension:
        raise DomainError(f"count must be in 1..{matrix.dimension}, got {count}")
    d = matrix.diagonal
    e = matrix.off_diagonal
    e2 = e * e
    reach = np.zeros(matrix.dimension)
    reach[:-1] += np.abs(e)
    reach[1:] += np.abs(e)
    lo_bound = float(np.min(d - reach))
    hi_bound = float(np.max(d + reach))
    scale = max(abs(lo_bound), abs(hi_bound), 1.0)
    pivmin = 1e-300 * max(1.0, float(np.max(e2, initial=0.0)))
    abs_floor = _REL_TOL * _REL_TOL * scale

    lo = np.full(count, lo_bound)
    hi = np.full(count, hi_bound)
    want = np.arange(1, count + 1)[:, None]
    for _ in range(_MAX_PASSES):
        tol = _REL_TOL * np.maximum(np.abs(lo), np.abs(hi)) + abs_floor
        open_ = hi - lo > tol
        if not np.any(open_):
            return 0.5 * (lo + hi)
        brackets = np.unique(np.column_stack((lo[open_], hi[open_])), axis=0)
        points = max(1, _SHIFTS // brackets.shape[0])
        fractions = np.arange(1, points + 1) / (points + 1)
        left, right = brackets[:, :1], brackets[:, 1:]
        shifts = np.unique(left + fractions * (right - left))
        below = sturm_counts(d, e2, shifts, pivmin) < want
        lo = np.maximum(lo, np.max(np.where(below, shifts, -np.inf), axis=1))
        hi = np.minimum(hi, np.min(np.where(below, np.inf, shifts), axis=1))
    raise ConvergenceError(
        f"multisection failed to converge in {_MAX_PASSES} passes (malformed matrix?)"
    )


def eigenvalue_with_refinement(potential, radius: float, domain: tuple[float, float],
                               n_nodes: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues on grids (n_nodes, 2 n_nodes) plus their Richardson combination.

    Returns (coarse, fine, extrapolated); the extrapolation assumes the
    second-order stencil, i.e. ``richardson_extrapolate(coarse, fine, 2)``.
    """
    coarse = lowest_eigenvalues(build_hamiltonian(potential, radius, domain, n_nodes), count)
    fine = lowest_eigenvalues(build_hamiltonian(potential, radius, domain, 2 * n_nodes), count)
    extrapolated = richardson_extrapolate(coarse, fine, 2)
    return coarse, fine, extrapolated
