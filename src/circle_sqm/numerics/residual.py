"""ODE residual measurement and Richardson extrapolation."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from ..systems import half_offset_grid, node_values, real_array


def richardson_extrapolate(coarse, fine):
    """Eliminate the leading O(h^2) error term, the stencil's, from a coarse/fine pair of
    ``systems.real_array`` levels; DomainError unless they have one shape."""
    coarse, fine = real_array(coarse, "coarse"), real_array(fine, "fine")
    if coarse.shape != fine.shape:
        raise DomainError(f"coarse {coarse.shape} and fine {fine.shape} must have one shape")
    return (4.0 * fine - coarse) / 3.0


def ode_residual(wavefn, bracket, domain: tuple[float, float], n_nodes: int) -> float:
    """Max norm of psi'' + bracket(phi) psi over interior grid nodes.

    ``wavefn`` and ``bracket`` must accept ndarray arguments; the second
    derivative is the central difference on the half-offset grid, so the
    returned residual decays as O(h^2) wherever psi has bounded fourth
    derivative.  Pass a ``domain`` safely inside the motion domain: near
    singular endpoints the higher derivatives of psi are unbounded and the
    max residual there does not converge.  ``n_nodes`` >= 8 half-offset nodes; ``wavefn``
    returns one real or complex value per node and ``bracket`` one per interior node.
    DomainError where h^2 is 0 or inf.
    """
    phi, h = half_offset_grid(domain, n_nodes, 8, "n_nodes")
    h_sq = h * h
    if not 0.0 < h_sq < math.inf:
        raise DomainError(f"the squared grid step of {domain!r} is {h_sq!r}")
    psi = node_values(np.asarray(wavefn(phi)), phi, "wavefn")
    second = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h_sq
    inner = phi[1:-1]
    residual = second + node_values(np.asarray(bracket(inner)), inner, "bracket") * psi[1:-1]
    return float(np.max(np.abs(residual)))


def residual_rate(wavefn, bracket, domain: tuple[float, float], n_nodes: int) -> float:
    """Measured convergence order log2(residual_h / residual_h_half) of the residual."""
    r_coarse = ode_residual(wavefn, bracket, domain, n_nodes)
    r_fine = ode_residual(wavefn, bracket, domain, 2 * n_nodes)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is a NaN rate, which fails
        return float(np.log2(np.float64(r_coarse) / r_fine))
