"""Singular oscillator on the circle: closed-form potential, reduced form,
spectrum and normalized wavefunctions.

Conventions
-----------
With polar angle phi (s0 = R cos phi, s1 = R sin phi) the potential reads

    V(phi) = (omega^2 R^2 / 2) tan^2(phi) + (k1^2 - 1/4) / (2 R^2 sin^2 phi).

Both systems share one branch rule (:func:`~circle_sqm.systems.two_branch`):
the minus branch is admissible exactly when 0 < |k1| <= 1/2.  There the motion
extends over (-pi/2, pi/2); each branch is treated as an independent family
normalized on [0, pi/2], and negative angles are evaluated by mirror
reflection (the same convention the Coulomb module uses for its parity
extension).  For k1 > 1/2 the inverse-square term is repulsive, the motion is
confined to phi in (0, pi/2) and only the plus branch exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, SingularPointError
from .systems import (Branch, CircleGeometry, PoschlTellerForm, check_branch_admissible,
                      finite_result, merged_levels, two_branch)

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class OscillatorSystem:
    """Parameter bundle: geometry, frequency omega >= 0, strength k1 > 0, branch."""

    geometry: CircleGeometry
    omega: float
    k1: float
    branch: Branch = Branch.PLUS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega!r}")
        if not (math.isfinite(self.k1) and self.k1 > 0.0):
            raise ValueError(f"k1 must be finite and > 0, got {self.k1!r}")
        check_branch_admissible(self.branch, self.k1)

    @property
    @finite_result
    def k0(self) -> float:
        """Positive root of k0^2 = omega^2 R^4 + 1/4 (>= 1/2); DomainError if not finite."""
        r2 = self.geometry.radius**2
        return math.sqrt(self.omega**2 * r2 * r2 + 0.25)

    @property
    def motion_domain(self) -> tuple[float, float]:
        if two_branch(self.k1):
            return (-math.pi / 2, math.pi / 2)
        return (0.0, math.pi / 2)


def _lgamma(x: float) -> float:
    return specfun.ln_gamma_complex(complex(x)).real


def potential(sys: OscillatorSystem, phi) -> float | np.ndarray:
    """Potential energy at angle phi (radians).

    Singular at phi in {0, +-pi/2, pi} where sin or cos vanishes; evaluation
    within 1e-12 of those points raises SingularPointError.
    """
    phi_arr = np.asarray(phi, dtype=float)
    s, c = np.sin(phi_arr), np.cos(phi_arr)
    if np.any(np.abs(s) < _SINGULAR_TOL) or np.any(np.abs(c) < _SINGULAR_TOL):
        raise SingularPointError("potential is singular where sin(phi) or cos(phi) vanishes")
    r = sys.geometry.radius
    v = 0.5 * sys.omega**2 * r * r * (s / c) ** 2 + (sys.k1**2 - 0.25) / (2.0 * r * r * s * s)
    return float(v[()]) if phi_arr.ndim == 0 else v


def reduce_to_poschl_teller(sys: OscillatorSystem, energy: float) -> PoschlTellerForm:
    """Map (system, E) to the reduced triple: epsilon = 2 R^2 E + omega^2 R^4."""
    r2 = sys.geometry.radius**2
    return PoschlTellerForm(
        epsilon=2.0 * r2 * energy + sys.omega**2 * r2 * r2,
        k0=sys.k0,
        k1=sys.k1,
    )


def energy_from_reduced(sys: OscillatorSystem, epsilon: float) -> float:
    """Inverse of :func:`reduce_to_poschl_teller`: E = (epsilon - omega^2 R^4) / (2 R^2)."""
    r2 = sys.geometry.radius**2
    return (epsilon - sys.omega**2 * r2 * r2) / (2.0 * r2)


def reduced_eigenvalue(n: int, k0: float, k1: float, branch: Branch) -> float:
    """Reduced-equation eigenvalue epsilon_n = (2n +- k1 + k0 + 1)^2."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    check_branch_admissible(branch, k1)
    return (2.0 * n + branch.sign * k1 + k0 + 1.0) ** 2


@finite_result
def energy_level(sys: OscillatorSystem, n: int) -> float:
    """Bound-state energy E_n = [(2n +- k1 + 1/2)^2 + (2 k0 + 1)(2n +- k1 + 1)] / (2 R^2).

    Algebraically identical to routing reduced_eigenvalue through
    :func:`energy_from_reduced`; both forms are kept and cross-checked because
    they exercise different cancellation patterns.  Non-finite levels raise DomainError.
    """
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    m = 2.0 * n + sys.branch.sign * sys.k1 + 1.0
    k0 = sys.k0
    return ((m - 0.5) ** 2 + (2.0 * k0 + 1.0) * m) / (2.0 * sys.geometry.radius**2)


def spectrum(sys: OscillatorSystem, n_max: int) -> list[tuple[int, Branch, float]]:
    """All levels with n = 0..n_max, merged over admissible branches, sorted by energy.

    For k1 > 1/2 only the plus branch exists; for |k1| <= 1/2 both branch
    families are included regardless of which branch ``sys`` carries.
    """
    return [(n, m.branch, e) for n, m, e in merged_levels(sys, n_max, energy_level)]


def _norm_constant(sys: OscillatorSystem, n: int) -> float:
    # Unit L2 norm on [0, pi/2] with measure R dphi.  All gamma factors are
    # combined in log space so large n does not overflow.  The +-k1 sign is
    # carried uniformly through every gamma argument.
    a = sys.branch.sign * sys.k1
    k0 = sys.k0
    ln_c2 = (
        math.log(2.0 * (2.0 * n + k0 + a + 1.0))
        + _lgamma(n + a + 1.0)
        + _lgamma(n + k0 + a + 1.0)
        - _lgamma(n + k0 + 1.0)
        - _lgamma(n + 1.0)
        - 2.0 * _lgamma(1.0 + a)
        - math.log(sys.geometry.radius)
    )
    return math.exp(0.5 * ln_c2)


def wavefunction(sys: OscillatorSystem, n: int, phi) -> float | np.ndarray:
    """Normalized bound-state wavefunction at angle(s) phi.

    The value is ``C (sin phi)^(1/2 +- k1) (cos phi)^(1/2 + k0)`` times the
    terminating Gauss series in sin^2(phi), with C fixed by unit norm on
    [0, pi/2].  Endpoints of the motion domain are hard errors (clamping
    would silently corrupt quadrature); for the two-branch regime negative
    angles return the mirror value psi(|phi|).
    """
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    lo, hi = sys.motion_domain
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr <= lo) or np.any(phi_arr >= hi):
        raise DomainError(f"phi must lie strictly inside the motion domain ({lo:g}, {hi:g})")
    phi_abs = np.abs(phi_arr)

    a = sys.branch.sign * sys.k1
    k0 = sys.k0
    s, c = np.sin(phi_abs), np.cos(phi_abs)
    series = specfun.hyp2f1_terminating(n, n + k0 + a + 1.0, 1.0 + a, s * s)
    values = _norm_constant(sys, n) * s ** (0.5 + a) * c ** (0.5 + k0) * np.real(series)
    return float(values[()]) if phi_arr.ndim == 0 else values
