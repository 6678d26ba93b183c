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
from .systems import (_SINGULAR_TOL, Branch, CircleGeometry, PoschlTellerForm,
                      check_shared_fields, finite_array_result, finite_result, in_blocks,
                      level_index, real_array, real_scalar, two_branch)

# Largest omega R^2 at which l2_norm trusts quadrature.norm_rule: every n <= 100 there is
# within 1.5e-9 of 1, but the rule does not follow the state, narrowing as 1/sqrt(k0),
# beyond it (1.7e-6 at omega R^2 = 300 and n <= 100, 3.8e-4 at 1e4 and n = 10).
_NORM_MAX_OMEGA_R2 = 1e2


@dataclass(frozen=True)
class OscillatorSystem:
    """Parameter bundle: geometry, frequency omega >= 0, strength k1 > 0, branch."""

    geometry: CircleGeometry
    omega: float
    k1: float
    branch: Branch = Branch.PLUS

    def __post_init__(self) -> None:
        for name in ("omega", "k1"):  # frozen: the fields as floats
            object.__setattr__(self, name, real_scalar(getattr(self, name), name))
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise DomainError(f"omega must be finite and >= 0, got {self.omega!r}")
        if not (math.isfinite(self.k1) and self.k1 > 0.0):
            raise DomainError(f"k1 must be finite and > 0, got {self.k1!r}")
        check_shared_fields(self)

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


@finite_array_result
def potential(sys: OscillatorSystem, phi) -> float | np.ndarray:
    """Potential energy at angle(s) phi (radians), a ``systems.real_array``.

    Singular at phi in {0, +-pi/2, pi} where sin or cos vanishes; evaluation
    within 1e-12 of those points raises SingularPointError.
    """
    phi = real_array(phi, "phi")
    s, c = np.sin(phi), np.cos(phi)
    if np.any(np.abs(s) < _SINGULAR_TOL) or np.any(np.abs(c) < _SINGULAR_TOL):
        raise SingularPointError("potential is singular where sin(phi) or cos(phi) vanishes")
    r = sys.geometry.radius
    t = s / c
    return 0.5 * sys.omega**2 * r * r * (t * t) + (sys.k1**2 - 0.25) / (2.0 * r * r * s * s)


def reduce_to_poschl_teller(sys: OscillatorSystem, energy: float) -> PoschlTellerForm:
    """Map (system, E) to the reduced triple: epsilon = 2 R^2 E + omega^2 R^4, for the
    ``systems.real_scalar`` E."""
    energy = real_scalar(energy, "energy")
    r2 = sys.geometry.radius**2
    return PoschlTellerForm(
        epsilon=2.0 * r2 * energy + sys.omega**2 * r2 * r2,
        k0=sys.k0,
        k1=sys.k1,
    )


@finite_result
def energy_from_reduced(sys: OscillatorSystem, epsilon: float) -> float:
    """Inverse of :func:`reduce_to_poschl_teller`: E = (epsilon - omega^2 R^4) / (2 R^2),
    for the ``systems.real_scalar`` epsilon."""
    epsilon = real_scalar(epsilon, "epsilon")
    r2 = sys.geometry.radius**2
    return (epsilon - sys.omega**2 * r2 * r2) / (2.0 * r2)


@finite_result
def reduced_eigenvalue(sys: OscillatorSystem, n: int) -> float:
    """Reduced-equation eigenvalue epsilon_n = (2n +- k1 + k0 + 1)^2 of the system's level n."""
    n = level_index(n)
    return (2.0 * n + sys.branch.sign * sys.k1 + sys.k0 + 1.0) ** 2


@finite_result
def energy_level(sys: OscillatorSystem, n: int) -> float:
    """Bound-state energy E_n = [(2n +- k1 + 1/2)^2 + (2 k0 + 1)(2n +- k1 + 1)] / (2 R^2).

    Algebraically identical to routing reduced_eigenvalue through
    :func:`energy_from_reduced`; both forms are kept and cross-checked because
    they exercise different cancellation patterns.  Non-finite levels raise DomainError.
    """
    n = level_index(n)
    m = 2.0 * n + sys.branch.sign * sys.k1 + 1.0
    k0 = sys.k0
    return ((m - 0.5) ** 2 + (2.0 * k0 + 1.0) * m) / (2.0 * sys.geometry.radius**2)


def _norm_constant(sys: OscillatorSystem, n: int) -> float:
    # Unit L2 norm on [0, pi/2] with measure R dphi: the Jacobi norm for
    # P_n^(a, k0)(cos 2 phi), a = +-k1.  The gamma factors are combined in log
    # space so large n does not overflow.
    a = sys.branch.sign * sys.k1
    k0 = sys.k0
    ln_c2 = (
        math.log(2.0 * (2.0 * n + k0 + a + 1.0))
        + specfun.ln_gamma_real(n + 1.0)
        + specfun.ln_gamma_real(n + k0 + a + 1.0)
        - specfun.ln_gamma_real(n + a + 1.0)
        - specfun.ln_gamma_real(n + k0 + 1.0)
        - math.log(sys.geometry.radius)
    )
    return math.exp(0.5 * ln_c2)


@finite_array_result
def wavefunction(sys: OscillatorSystem, n: int, phi) -> float | np.ndarray:
    """Normalized bound-state wavefunction at angle(s) phi.

    The value is ``C (sin phi)^(1/2 + a) (cos phi)^(1/2 + k0) P_n^(a, k0)(cos 2 phi)``
    with a = +-k1, the Jacobi polynomial from :func:`specfun.jacobi_scaled`
    and C fixed by unit norm on [0, pi/2].  Endpoints of the motion domain are
    hard errors (clamping would silently corrupt quadrature); for the
    two-branch regime negative angles return the mirror value psi(|phi|);
    values that are not finite doubles raise DomainError.  The angles are
    evaluated block by block (:func:`~circle_sqm.systems.in_blocks`) in six work
    buffers of the block's size.
    """
    n = level_index(n)
    a = sys.branch.sign * sys.k1
    k0 = sys.k0
    norm = _norm_constant(sys, n)
    ab_sum, ab_product, d_w = a + k0, a * k0, a - k0

    def block(phi):
        phi_abs = np.abs(phi)  # becomes cos 2 phi
        s, c = np.sin(phi_abs), np.cos(phi_abs)
        x = np.cos(np.multiply(phi_abs, 2.0, out=phi_abs), out=phi_abs)
        jacobi = specfun.jacobi_scaled(n, ab_sum, ab_product, x, d_w, 1.0)
        # ((C s^(1/2 + a)) c^(1/2 + k0)) P in the buffer of s
        s **= 0.5 + a
        s *= norm
        c **= 0.5 + k0
        s *= c
        s *= jacobi
        return s

    return in_blocks(block, phi, *sys.motion_domain)


def l2_norm(sys: OscillatorSystem, n: int) -> float:
    """R * integral_0^(pi/2) psi_n^2 dphi on :func:`quadrature.norm_rule` (1 for every n).

    It refuses omega R^2 > 100 and n > 100 with DomainError."""
    omega_r2 = sys.omega * sys.geometry.radius**2
    if omega_r2 > _NORM_MAX_OMEGA_R2:
        raise DomainError(f"the norm rule is not resolved at omega R^2 = {omega_r2:g} > "
                          f"{_NORM_MAX_OMEGA_R2:g}")
    from .numerics.quadrature import norm_rule

    nodes, weights = norm_rule(math.pi / 2, n)
    psi = wavefunction(sys, n, nodes)
    return float(sys.geometry.radius * np.dot(weights, psi * psi))
