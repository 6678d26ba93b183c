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
are real on (0, pi): the closed form's Gauss series in 1 - e^(2 i phi), times
its phase e^(-i n phi), is a Jacobi polynomial with conjugate parameters at an
imaginary argument, which :func:`wavefunction` evaluates as a real
recurrence in cos(phi) and sin(phi) (the Romanovski form of Raposo, Weber,
Alvarez-Castillo and Kirchbach 2007).  The bilinear pairing used for
normalization conjugates one factor and reflects its angle, where the
negative-angle values follow the mirror determination of the wavefunction;
on (0, pi) the pairing therefore reduces to the plain product, and

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
from .systems import (_SINGULAR_TOL, Branch, CircleGeometry, PoschlTellerForm,
                      check_shared_fields, finite_array_result, finite_result, in_blocks,
                      level_index, real_array, real_scalar)

# Largest mu R at which diamond_norm, and so every Coulomb norm report of validate,
# trusts quadrature.norm_rule: every n <= 100 there gives |norm - 1/2| <= 5.5e-9,
# but the rule's endpoint refinement does not follow the e^(-sigma phi) decay
# beyond it (6.5e-7 at mu R = 3e3 and n = 20, 1.2e-2 at mu R = 1e4 and n = 50).
_NORM_MAX_MU_R = 1e3
# Largest Im k0 for contour_norm_constant: over n <= 100 and k1/branch 1+, 0.5+-, 1.3+ it
# is 5.3e-11 off mpmath (60 digits) at 1e5, 1.5e-10 at 2e5, and reads 2.0 at 1e300 (overflow).
_CONTOUR_MAX_SIGMA = 1e5
# e^(-sigma phi) is a normal double while sigma phi <= -ln(DBL_MIN) ~ 708.4; beyond it the
# evaluator's exponential is off by at most min(e^(-sigma phi), 2^-1075), half the least
# subnormal (1075 ln 2 ~ 745.1 in the exponent)
_LN_DBL_MIN = -math.log(np.finfo(np.float64).tiny)
_LN_HALF_SUBNORMAL = 1075.0 * math.log(2.0)


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
        for name in ("mu", "k1"):  # frozen: the fields as floats
            object.__setattr__(self, name, real_scalar(getattr(self, name), name))
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"mu must be finite and > 0, got {self.mu!r}")
        if not 0.0 <= self.k1 < math.sqrt(2.0):  # NaN fails too
            raise DomainError(f"k1 must lie in [0, sqrt(2)) (0 < p^2 <= 1/2), got {self.k1!r}")
        check_shared_fields(self)

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


@finite_array_result
def potential(sys: CoulombSystem, phi) -> float | np.ndarray:
    """Potential energy at angle(s) phi in (-pi, pi) \\ {0}, a ``systems.real_array``.

    V(phi) = -(mu/R) cot|phi| - (p^2 - 1/4)/(2 R^2 sin^2 phi); singular at
    phi in {0, +-pi}.
    """
    phi = real_array(phi, "phi")
    s = np.sin(phi)
    if np.any(np.abs(s) < _SINGULAR_TOL):
        raise SingularPointError("potential is singular where sin(phi) vanishes")
    r = sys.geometry.radius
    cot_abs = np.cos(phi) / np.abs(s)
    return -(sys.mu / r) * cot_abs - (sys.p_squared - 0.25) / (2.0 * r * r * s * s)


def duality_parameters(sys: CoulombSystem, energy: float) -> PoschlTellerForm:
    """Complex reduced triple for the duality map at (system, E).

    With k = i mu: epsilon = 2 R^2 E + 2 k R and k0^2 = 2 R^2 E - 2 k R, so
    epsilon - k0^2 = 4 i mu R identically.  The stored k0 is the square root
    with Re k0 <= 0, matching the root the quantization condition selects.  E is a
    ``systems.real_scalar``.
    """
    energy = real_scalar(energy, "energy")
    r = sys.geometry.radius
    epsilon = 2.0 * r * r * energy + 2j * sys.mu * r
    k0 = cmath.sqrt(2.0 * r * r * energy - 2j * sys.mu * r)
    if k0.real > 0.0:
        k0 = -k0
    return PoschlTellerForm(epsilon=epsilon, k0=k0, k1=sys.k1)


def quantize(sys: CoulombSystem, n: int) -> CoulombQuantumNumbers:
    """Quantum numbers of the n-th bound state; DomainError if sigma is not finite."""
    n = level_index(n)
    nu = sys.nu
    sigma = sys.mu * sys.geometry.radius / (n + nu)
    if not math.isfinite(sigma):
        raise DomainError(f"sigma = mu R/(n + nu) is not a finite double, got {sigma!r}")
    return CoulombQuantumNumbers(n=n, nu=nu, sigma=sigma, k0=complex(-(n + nu), sigma))


@finite_result
def energy_level(sys: CoulombSystem, n: int) -> float:
    """Bound-state energy E_n = (n + nu)^2/(2 R^2) - mu^2/(2 (n + nu)^2), if finite."""
    n = level_index(n)
    nu = sys.nu
    r2 = sys.geometry.radius**2
    return (n + nu) ** 2 / (2.0 * r2) - sys.mu**2 / (2.0 * (n + nu) ** 2)


@finite_result
def norm_constant(sys: CoulombSystem, n: int) -> float:
    """Real positive normalization constant of the n-th state, in the sigma parameterization.

    C = exp(sigma pi/2) 2^nu (|Gamma(nu + i sigma)| / Gamma(2 nu))
        * sqrt(((n+nu)^2 + sigma^2) Gamma(n + 2 nu) / (4 pi R (n+nu) n!)),

    with nu and sigma from :func:`quantize`.  Assembled entirely in log space:
    exp(sigma pi/2) and |Gamma(nu+i sigma)| overflow/underflow separately already
    for sigma of a few hundred while their product stays O(sigma^(nu - 1/2)).  A
    result that is not a finite double raises DomainError.
    """
    qn = quantize(sys, n)
    n, nu, sigma, radius = qn.n, qn.nu, qn.sigma, sys.geometry.radius
    ln_c = (
        0.5 * sigma * math.pi
        + nu * math.log(2.0)
        + specfun.ln_gamma_complex(complex(nu, sigma)).real
        - specfun.ln_gamma_real(2.0 * nu)
        + 0.5
        * (
            math.log((n + nu) ** 2 + sigma**2)
            + specfun.ln_gamma_real(n + 2.0 * nu)
            - math.log(4.0 * math.pi * radius * (n + nu))
            - specfun.ln_gamma_real(n + 1.0)
        )
    )
    return math.exp(ln_c)


def contour_norm_constant(sys: CoulombSystem, n: int) -> complex:
    """Normalization constant of state n by the contour-integral route, a complex value.

    The contour integral is carried out in the oscillator-side variable whose
    sin^2 equals 1 - e^(2 i phi); translating the resulting constant to the
    (sin phi)^nu representation used by :func:`wavefunction` contributes the
    Jacobian factor (-2i)^nu, which is included here.  Its modulus then equals
    :func:`norm_constant`; the phase is an artifact of principal-branch choices and is
    not observable.  k0 comes from :func:`quantize`; Im k0 > 1e5 raises DomainError.
    """
    qn = quantize(sys, n)
    n, nu, k0, radius = qn.n, qn.nu, qn.k0, sys.geometry.radius
    if k0.imag > _CONTOUR_MAX_SIGMA:
        raise DomainError(f"contour route needs Im k0 <= {_CONTOUR_MAX_SIGMA:g}, got {k0.imag!r}")
    a = sys.branch.sign * sys.k1
    ln_num = (
        cmath.log(-1j * k0)
        + cmath.log(2.0 * n + k0 + a + 1.0)
        + specfun.ln_gamma_real(n + 1.0 + a)
        + specfun.ln_gamma_complex(n + k0 + a + 1.0)
    )
    ln_den = (
        math.log(radius)
        + cmath.log(1.0 - cmath.exp(2j * cmath.pi * k0))
        + cmath.log(2.0 * n + a + 1.0)
        + specfun.ln_gamma_real(n + 1.0)
        + 2.0 * specfun.ln_gamma_real(1.0 + a)
        + specfun.ln_gamma_complex(n + k0 + 1.0)
    )
    jacobian = cmath.exp(nu * (math.log(2.0) - 0.5j * math.pi))  # (-2i)^nu
    return jacobian * cmath.exp(0.5 * (ln_num - ln_den))


def _evaluate(sys: CoulombSystem, qn: CoulombQuantumNumbers, phi, parity=None) -> np.ndarray:
    """The closed form of :func:`wavefunction` at angles phi in (0, pi); with a ``parity``,
    that of :func:`extend_parity` at angles in (-pi, pi)."""
    n, nu, sigma = qn.n, qn.nu, qn.sigma
    scale = math.prod(-2.0 * (m + 1) / (2.0 * nu + m) for m in range(n))  # (-2)^n n!/(2 nu)_n
    c_scale = norm_constant(sys, n) * scale
    big_n = n + nu
    ab_sum, ab_product, two_sigma = -2.0 * big_n, big_n**2 + sigma**2, 2.0 * sigma
    # a state normalized to R int_0^pi psi^2 = 1/2 peaks at or above 1/sqrt(2 pi R)
    ln_tolerance = math.log(1e-10 / math.sqrt(2.0 * math.pi * sys.geometry.radius))

    def block(phi):
        phi_abs = phi if parity is None else np.abs(phi)
        s = np.sin(phi_abs)
        x = np.cos(phi_abs)  # reused below
        w_sq = -s
        w_sq *= s
        romanovski = specfun.jacobi_scaled(n, ab_sum, ab_product, x, two_sigma * s, w_sq)
        if sigma * math.pi > _LN_DBL_MIN:  # the bound of the exponential's error, in logs
            far = phi_abs * sigma > _LN_DBL_MIN
            ln_error = (np.log(abs(c_scale)) + nu * np.log(s[far])
                        + np.log(np.abs(romanovski[far]))
                        - np.maximum(phi_abs[far] * sigma, _LN_HALF_SUBNORMAL))
            if np.any(ln_error > ln_tolerance):
                raise DomainError(f"e^(-sigma phi) underflows at sigma = {sigma:g} and n = {n}: "
                                  "the state is not resolved to 1e-10 of its peak")
        # (((C scale) s^nu) e^(-sigma phi)) Q in the buffer of s
        s **= nu
        s *= c_scale
        s *= np.exp(np.multiply(phi_abs, -sigma, out=x), out=x)
        s *= romanovski
        if parity is Parity.ODD:
            s *= np.sign(phi)
        return s

    domain = sys.motion_domain if parity is None else (-math.pi, math.pi)
    return in_blocks(block, phi, *domain)


@finite_array_result
def wavefunction(sys: CoulombSystem, n: int, phi) -> float | np.ndarray:
    """Bound-state wavefunction on (0, pi), as a real float64 value or array.

    psi = C (sin phi)^nu e^(-i phi (n - i sigma)) F(-n, nu + i sigma; 2 nu;
    1 - e^(2 i phi)) with the real constant C of :func:`norm_constant`.  With
    N = n + nu this equals C (-2)^n n!/(2 nu)_n (sin phi)^nu e^(-sigma phi) Q_n,
    where Q_n = sin^n(phi) i^(-n) P_n^(-N + i sigma, -N - i sigma)(i cot phi)
    is real and is evaluated by :func:`specfun.jacobi_scaled` in real
    arithmetic, block by block (:func:`~circle_sqm.systems.in_blocks`) in eight
    work buffers of the block's size.  Values that are not finite doubles raise
    DomainError.
    """
    return _evaluate(sys, quantize(sys, n), phi)


def diamond_norm(sys: CoulombSystem, n: int, m: int | None = None) -> float:
    """R * integral_0^pi psi_n psi_m^diamond dphi by quadrature (1/2 when n == m).

    The diamond partner conjugates and reflects the angle; the reflected side
    is the mirror determination of the wavefunction, so on (0, pi) the
    partner of the real :func:`wavefunction` is the wavefunction itself (see
    the module docstring for why the principal-branch alternative is not a
    normalizable convention).

    It integrates on :func:`quadrature.norm_rule` and refuses mu R > 1e3, and n or m
    above 100, with DomainError.
    """
    mu_r = sys.mu * sys.geometry.radius
    if mu_r > _NORM_MAX_MU_R:
        raise DomainError(f"the norm rule is not resolved at mu R = {mu_r:g} > {_NORM_MAX_MU_R:g}")
    from .numerics.quadrature import norm_rule

    n = level_index(n)
    m = n if m is None else level_index(m)
    nodes, weights = norm_rule(sys.motion_domain[1], max(n, m))
    psi = wavefunction(sys, n, nodes)
    partner = psi if m == n else wavefunction(sys, m, nodes)
    return float(sys.geometry.radius * np.dot(weights, psi * partner))


@finite_array_result
def extend_parity(sys: CoulombSystem, n: int, phi, parity: Parity) -> float | np.ndarray:
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
    if not isinstance(parity, Parity):
        raise DomainError(f"parity must be a Parity, got {parity!r}")
    return _evaluate(sys, quantize(sys, n), phi, parity)
