"""Singular Coulomb system on the circle via the complex duality with the
singular oscillator: quantization, energies, wavefunctions, both
normalization-constant routes and the parity extension.

Sign convention
---------------
The potential implemented here is the one whose Schroedinger form is

    psi'' + (2 R^2 E + 2 mu R cot|phi| + (p^2 - 1/4)/sin^2 phi) psi = 0,

i.e. V(phi) = -(mu/R) cot|phi| - (p^2 - 1/4)/(2 R^2 sin^2 phi) with
p^2 = (2 - k1^2)/4.  Every downstream closed form (the duality parameter
dictionary, both quantization cases, the wavefunctions) is consistent with
this bracket, which the ODE-residual validation confirms numerically.

Normalization convention
------------------------
Wavefunctions carry the real positive constant of :func:`norm_constant` and
are real-valued on (0, pi) up to roundoff.  The bilinear pairing used for
normalization conjugates one factor and reflects its angle, where the
negative-angle values follow the mirror determination of the wavefunction;
on (0, pi) the pairing therefore reduces to plain conjugation, and

    R * integral_0^pi psi_n psi_n^diamond dphi = 1/2

holds for every bound state (the full-circle parity eigenfunctions then have
unit norm).  Evaluating the closed form at literally negated angle through
principal branches instead is NOT the convention used here: it multiplies
the pairing by an angle-independent phase and an exp(sigma*pi)-scale factor
that no finite constant can normalize to 1/2.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import BranchError, DomainError, SingularPointError
from .systems import (Branch, CircleGeometry, PoschlTellerForm, check_branch_admissible,
                      finite_result, merged_levels)

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class CoulombSystem:
    """Parameter bundle: geometry, coupling mu > 0, duality strength k1, branch.

    k1 is tied to the inverse-square coefficient by k1^2 = 2 - 4 p^2 with
    0 < p^2 <= 1/2, hence 0 <= k1 < sqrt(2).  The complexified coupling
    k = i mu never appears in the public surface; it lives inside the duality
    formulas only.
    """

    geometry: CircleGeometry
    mu: float
    k1: float
    branch: Branch = Branch.PLUS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")
        if not (math.isfinite(self.k1) and 0.0 <= self.k1 < math.sqrt(2.0)):
            raise ValueError(
                f"k1 must satisfy 0 <= k1 < sqrt(2) (so that 0 < p^2 <= 1/2), got {self.k1!r}"
            )
        check_branch_admissible(self.branch, self.k1)

    @property
    def p_squared(self) -> float:
        return (2.0 - self.k1**2) / 4.0

    @property
    def nu(self) -> float:
        """Effective offset nu = (1 +- k1)/2 for this system's branch."""
        return 0.5 * (1.0 + self.branch.sign * self.k1)

    @property
    def two_sided(self) -> bool:
        """Whether the motion extends over both signs of phi.

        Both half-circles are accessible when the inverse-square term is not
        repulsive at the origin, i.e. p^2 <= 1/4 (k1 >= 1); for p^2 > 1/4 the
        motion is confined to one of phi > 0 or phi < 0.
        """
        return self.p_squared <= 0.25

    @property
    def motion_domain(self) -> tuple[float, float]:
        """The domain (0, pi) of :func:`wavefunction`; :func:`extend_parity` covers (-pi, pi)."""
        return (0.0, math.pi)


@dataclass(frozen=True)
class CoulombQuantumNumbers:
    """Quantized parameters: nu = (1 +- k1)/2, sigma = mu R/(n + nu),
    k0 = -(n + nu) + i sigma."""

    n: int
    nu: float
    sigma: float
    k0: complex


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def potential(sys: CoulombSystem, phi) -> float | np.ndarray:
    """Potential energy at angle phi in (-pi, pi) \\ {0}.

    V(phi) = -(mu/R) cot|phi| - (p^2 - 1/4)/(2 R^2 sin^2 phi); singular at
    phi in {0, +-pi}.
    """
    phi_arr = np.asarray(phi, dtype=float)
    s = np.sin(phi_arr)
    if np.any(np.abs(s) < _SINGULAR_TOL):
        raise SingularPointError("potential is singular where sin(phi) vanishes")
    r = sys.geometry.radius
    cot_abs = np.cos(phi_arr) / np.abs(s)
    v = -(sys.mu / r) * cot_abs - (sys.p_squared - 0.25) / (2.0 * r * r * s * s)
    return float(v[()]) if phi_arr.ndim == 0 else v


def duality_parameters(sys: CoulombSystem, energy: float) -> PoschlTellerForm:
    """Complex reduced triple for the duality map at (system, E).

    With k = i mu: epsilon = 2 R^2 E + 2 k R and k0^2 = 2 R^2 E - 2 k R, so
    epsilon - k0^2 = 4 i mu R identically.  The stored k0 is the square root
    with Re k0 <= 0, matching the root the quantization condition selects.
    """
    r = sys.geometry.radius
    epsilon = 2.0 * r * r * energy + 2j * sys.mu * r
    k0 = cmath.sqrt(2.0 * r * r * energy - 2j * sys.mu * r)
    if k0.real > 0.0:
        k0 = -k0
    return PoschlTellerForm(epsilon=epsilon, k0=k0, k1=sys.k1)


def quantize(sys: CoulombSystem, n: int) -> CoulombQuantumNumbers:
    """Quantum numbers of the n-th bound state."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    nu = sys.nu
    sigma = sys.mu * sys.geometry.radius / (n + nu)
    return CoulombQuantumNumbers(n=n, nu=nu, sigma=sigma, k0=complex(-(n + nu), sigma))


@finite_result
def energy_level(sys: CoulombSystem, n: int) -> float:
    """Bound-state energy E_n = (n + nu)^2/(2 R^2) - mu^2/(2 (n + nu)^2), if finite."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    nu = sys.nu
    r2 = sys.geometry.radius**2
    return (n + nu) ** 2 / (2.0 * r2) - sys.mu**2 / (2.0 * (n + nu) ** 2)


def spectrum(sys: CoulombSystem, n_max: int) -> list[tuple[int, Branch, float]]:
    """Levels n = 0..n_max merged over admissible branches, sorted by energy."""
    return [(n, m.branch, e) for n, m, e in merged_levels(sys, n_max, energy_level)]


def norm_constant(n: int, nu: float, sigma: float, radius: float) -> float:
    """Real positive normalization constant in the sigma parameterization.

    C = exp(sigma pi/2) 2^nu (|Gamma(nu + i sigma)| / Gamma(2 nu))
        * sqrt(((n+nu)^2 + sigma^2) Gamma(n + 2 nu) / (4 pi R (n+nu) n!)).

    Assembled entirely in log space: exp(sigma pi/2) and |Gamma(nu+i sigma)|
    overflow/underflow separately already for sigma of a few hundred while
    their product stays O(sigma^(nu - 1/2)).
    """
    if nu <= 0.0:
        raise DomainError(f"nu must be > 0, got {nu}")
    ln_c = (
        0.5 * sigma * math.pi
        + nu * math.log(2.0)
        + specfun.ln_gamma_complex(complex(nu, sigma)).real
        - specfun.ln_gamma_complex(complex(2.0 * nu)).real
        + 0.5
        * (
            math.log((n + nu) ** 2 + sigma**2)
            + specfun.ln_gamma_complex(complex(n + 2.0 * nu)).real
            - math.log(4.0 * math.pi * radius * (n + nu))
            - specfun.ln_gamma_complex(complex(n + 1.0)).real
        )
    )
    return math.exp(ln_c)


def contour_norm_constant(
    n: int, k0: complex, k1: float, radius: float, branch: Branch
) -> complex:
    """Normalization constant from the contour-integral route, as a complex value.

    The contour integral is carried out in the oscillator-side variable whose
    sin^2 equals 1 - e^(2 i phi); translating the resulting constant to the
    (sin phi)^nu representation used by :func:`wavefunction` contributes the
    Jacobian factor (-2i)^nu, which is included here.  Its modulus then equals
    :func:`norm_constant` on the quantized locus; the phase is an artifact of
    principal-branch choices and is not observable.
    """
    check_branch_admissible(branch, k1)
    a = branch.sign * k1
    nu = 0.5 * (1.0 + a)
    ln_num = (
        cmath.log(-1j * k0)
        + cmath.log(2.0 * n + k0 + a + 1.0)
        + specfun.ln_gamma_complex(n + 1.0 + a)
        + specfun.ln_gamma_complex(n + k0 + a + 1.0)
    )
    ln_den = (
        math.log(radius)
        + cmath.log(1.0 - cmath.exp(2j * cmath.pi * k0))
        + cmath.log(2.0 * n + a + 1.0)
        + specfun.ln_gamma_complex(complex(n + 1.0))
        + 2.0 * specfun.ln_gamma_complex(complex(1.0 + a))
        + specfun.ln_gamma_complex(n + k0 + 1.0)
    )
    jacobian = cmath.exp(nu * (math.log(2.0) - 0.5j * math.pi))  # (-2i)^nu
    return jacobian * cmath.exp(0.5 * (ln_num - ln_den))


def _check_open_interval(phi_arr: np.ndarray, lo: float, hi: float) -> None:
    if np.any(phi_arr <= lo) or np.any(phi_arr >= hi):
        raise DomainError(f"phi must lie strictly inside ({lo:g}, {hi:g})")


def _evaluate(sys: CoulombSystem, qn: CoulombQuantumNumbers, phi_abs) -> np.ndarray:
    """The closed form of :func:`wavefunction` at angles phi_abs in [0, pi), unchecked."""
    n = qn.n
    c = norm_constant(n, qn.nu, qn.sigma, sys.geometry.radius)
    series = specfun.hyp2f1_terminating(
        n, complex(qn.nu, qn.sigma), complex(2.0 * qn.nu), 1.0 - np.exp(2j * phi_abs)
    )
    return c * np.sin(phi_abs) ** qn.nu * np.exp(-1j * phi_abs * complex(n, -qn.sigma)) * series


def wavefunction(sys: CoulombSystem, n: int, phi) -> complex | np.ndarray:
    """Bound-state wavefunction on (0, pi).

    psi = C (sin phi)^nu e^(-i phi (n - i sigma)) F(-n, nu + i sigma; 2 nu;
    1 - e^(2 i phi)) with the real constant C of :func:`norm_constant`.  The
    value is real up to roundoff (the series and the phase factor conspire),
    but is returned as complex since all intermediate arithmetic is complex.
    """
    qn = quantize(sys, n)
    phi_arr = np.asarray(phi, dtype=float)
    _check_open_interval(phi_arr, *sys.motion_domain)
    values = _evaluate(sys, qn, phi_arr)
    return complex(values[()]) if phi_arr.ndim == 0 else values


def diamond_conjugate(sys: CoulombSystem, n: int, phi) -> complex | np.ndarray:
    """Diamond partner: conjugate combined with angle reflection.

    The reflected side is the mirror determination of the wavefunction, so on
    (0, pi) this is the plain complex conjugate of :func:`wavefunction` (see
    the module docstring for why the principal-branch alternative is not a
    normalizable convention).  The operation is an involution.
    """
    return np.conj(wavefunction(sys, n, phi))


def diamond_norm(sys: CoulombSystem, n: int, m: int | None = None, *, quad=None) -> float:
    """R * integral_0^pi psi_n psi_m^diamond dphi by quadrature (1/2 when n == m).

    ``quad`` may supply (nodes, weights) on (0, pi); by default a composite
    Gauss rule with endpoint refinement is used (the integrand behaves like
    (sin phi)^(2 nu) at the ends, with nu as small as 1/4).
    """
    if quad is None:
        from .numerics.quadrature import NORM_RULE, gauss_legendre_rule

        quad = gauss_legendre_rule(*NORM_RULE[:2], *sys.motion_domain,
                                   endpoint_refinement=NORM_RULE[2])
    nodes, weights = quad
    psi = wavefunction(sys, n, nodes)
    partner = psi if m is None or m == n else wavefunction(sys, m, nodes)
    value = sys.geometry.radius * np.dot(weights, psi * np.conj(partner))
    return float(np.real(value))


def extend_parity(sys: CoulombSystem, n: int, phi, parity: Parity) -> complex | np.ndarray:
    """Even/odd extension of the bound state to the full circle (-pi, pi).

    psi_even(phi) = psi(|phi|) and psi_odd(phi) = sign(phi) psi(|phi|); both
    reduce to :func:`wavefunction` on (0, pi) and psi_odd vanishes at 0.
    Raises BranchError when the motion is confined to one half-circle
    (p^2 > 1/4), where no two-sided state exists.
    """
    if not sys.two_sided:
        raise BranchError(
            "parity extension needs motion on both sides of the origin "
            f"(p^2 <= 1/4), got p^2 = {sys.p_squared:g}"
        )
    qn = quantize(sys, n)
    phi_arr = np.asarray(phi, dtype=float)
    _check_open_interval(phi_arr, -math.pi, math.pi)
    values = _evaluate(sys, qn, np.abs(phi_arr))
    if parity is Parity.ODD:
        values = np.sign(phi_arr) * values
    return complex(values[()]) if phi_arr.ndim == 0 else values
