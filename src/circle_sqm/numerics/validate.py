"""Cross-validation engine: analytic formulas against independent numerics.

Every check here compares a closed-form result from :mod:`circle_sqm.oscillator`
or :mod:`circle_sqm.coulomb` to something that does not reuse it: a
finite-difference eigensolver fed only the potential, quadrature of the
squared wavefunction, a central-difference ODE residual, an exact rational
identity, or the flat-space limit formulas.  Results are packaged as
:class:`ValidationReport` records keyed by case id, suitable for machine
consumption through the CLI.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

from .. import coulomb, oscillator, specfun
from ..errors import DomainError
from ..systems import Branch, CircleGeometry, closed_forms, finite_result, spectrum
from .eigensolve import eigenvalue_with_refinement
from .quadrature import norm_rule
from .residual import residual_rate

RATE_FLOOR = 1.8  # least measured convergence order of FD levels and ODE residuals
SHAPE_TOLERANCE = 0.999  # largest ratio of consecutive contraction shape deviations
_NORM_CASES = {oscillator: ("l2-norm", 1.0), coulomb: ("diamond-norm", 0.5)}
# the (k1, branch) families of the Coulomb norm and contraction suites: nu = 1/4, 3/4, 1
_COULOMB_FAMILIES = ((0.5, Branch.MINUS), (0.5, Branch.PLUS), (1.0, Branch.PLUS))


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Outcome of one numeric-vs-analytic cross-check.

    ``rel_err`` entries are |numeric - analytic| scaled by max(|analytic|, 1),
    and FD levels by max(|E|, 1/(2 R^2)), the system's energy unit, so
    near-zero reference values are judged absolutely.  ``passed`` is
    exactly max(rel_err) <= tolerance.  For convergence-rate cases the single
    rel_err entry is the shortfall max(0, (floor - rate)/floor); for the
    contraction shape case rel_err holds consecutive deviation ratios (which
    must stay below 1).
    """

    case_id: str
    analytic: tuple[float, ...]
    numeric: tuple[float, ...]
    abs_err: tuple[float, ...]
    rel_err: tuple[float, ...]
    convergence_rate: float | None
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        # a shallow dict: every field is a str, float, bool, None or tuple of floats
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}


def _report(case_id: str, analytic, numeric, tolerance: float,
            convergence_rate: float | None = None, unit: float = 1.0) -> ValidationReport:
    analytic = tuple(float(a) for a in analytic)
    numeric = tuple(float(x) for x in numeric)
    abs_err = tuple(abs(x - a) for a, x in zip(analytic, numeric))
    rel_err = tuple(e / max(abs(a), unit) for a, e in zip(analytic, abs_err))
    passed = max(rel_err, default=0.0) <= tolerance
    return ValidationReport(case_id, analytic, numeric, abs_err, rel_err,
                            convergence_rate, passed, tolerance)


def _rate_report(case_id: str, rate: float, floor: float) -> ValidationReport:
    shortfall = max(0.0, (floor - rate) / floor)
    return ValidationReport(case_id, (floor,), (float(rate),), (abs(rate - floor),),
                            (shortfall,), float(rate), shortfall == 0.0, 0.0)


# ---------------------------------------------------------------------------
# finite-difference spectrum validation
# ---------------------------------------------------------------------------


def validate_system(system, n_max: int, grid: int, tolerance: float,
                    residual_levels: tuple[int, ...] = (0, 2, 5),
                    label: str | None = None) -> list[ValidationReport]:
    """Full cross-check of one system: FD spectrum, norms, residual rates.

    The FD oracle uses grids (grid, 2*grid) on ``system.motion_domain`` with
    Richardson extrapolation and sees only the potential; for two-branch
    oscillator systems it meets the sorted union of both branch families.
    Level errors are relative to max(|E|, 1/(2 R^2)), so energies far below 1
    (large R) are judged in the system's own unit.  FD level and ODE residual
    orders must reach RATE_FLOOR.  ``label``
    defaults to the module name, ``oscillator`` or ``coulomb``.
    """
    module = closed_forms(system)
    if module is coulomb and system.nu < 1.0:
        raise DomainError(
            "FD eigenvalue validation needs boundary exponent nu >= 1 "
            f"(got nu = {system.nu:g}); use norm/residual checks instead"
        )
    label = label or module.__name__.rsplit(".", 1)[-1]
    schedule = f"N={grid}/{2 * grid}"
    count = n_max + 1

    analytic = [energy for _, _, energy in spectrum(system, n_max)][:count]
    norms = _norm_reports(system, min(n_max, 5), label)  # may refuse; before the solves
    coarse, fine, extrapolated = eigenvalue_with_refinement(
        lambda phi: module.potential(system, phi), system.geometry.radius,
        system.motion_domain, grid, count
    )
    reports = [
        _report(f"{label}/levels[{schedule}]", analytic, extrapolated, tolerance,
                unit=0.5 / system.geometry.radius**2)
    ]
    err_coarse = np.abs(coarse - np.asarray(analytic))
    err_fine = np.abs(fine - np.asarray(analytic))
    orders = np.log2(err_coarse / err_fine)
    reports.append(_rate_report(f"{label}/levels-order[{schedule}]",
                                float(np.min(orders)), RATE_FLOOR))
    reports.extend(norms)
    reports.extend(_residual_reports(system, residual_levels, label))
    return reports


def _norm_reports(system, n_max: int, label: str) -> list[ValidationReport]:
    """R * integral of psi_n^2 over (0, hi): 1 for the oscillator, 1/2 for Coulomb."""
    module = closed_forms(system)
    if module is coulomb:
        nodes, weights = coulomb.norm_nodes(system)
    else:
        nodes, weights = norm_rule(system.motion_domain[1])
    norms = []
    for n in range(n_max + 1):
        psi = module.wavefunction(system, n, nodes)
        norms.append(float(system.geometry.radius * np.dot(weights, psi * psi)))
    case, target = _NORM_CASES[module]
    return [_report(f"{label}/{case}", [target] * len(norms), norms, 1e-8)]


def _residual_reports(system, levels: tuple[int, ...], label: str) -> list[ValidationReport]:
    """Order of the residual psi'' + 2 R^2 (E_n - V) psi on the middle 60% of (0, hi)."""
    module = closed_forms(system)
    two_r2 = 2.0 * system.geometry.radius**2
    hi = system.motion_domain[1]
    window = (0.2 * hi, hi - 0.2 * hi)
    reports = []
    for n in levels:
        energy = module.energy_level(system, n)
        rate = residual_rate(
            lambda phi: module.wavefunction(system, n, phi),
            lambda phi: two_r2 * (energy - module.potential(system, phi)), window, 2000)
        reports.append(_rate_report(f"{label}/residual-order[n={n}]", rate, RATE_FLOOR))
    return reports


# ---------------------------------------------------------------------------
# contraction limit (R -> infinity at fixed y)
# ---------------------------------------------------------------------------


@finite_result
def flat_limit_energy(mu: float, nu: float, n: int) -> float:
    """Flat-space limit of the Coulomb level: -mu^2 / (2 (n + nu)^2)."""
    return -(mu * mu) / (2.0 * (n + nu) ** 2)


@finite_result
def flat_limit_wavefunction(mu: float, nu: float, n: int, y) -> float | np.ndarray:
    """Flat-space limit profile in the scaled coordinate y = 2 mu x/(n + nu); mu > 0."""
    if not mu > 0.0:
        raise DomainError(f"mu must be > 0, got {mu!r}")
    y_arr = np.asarray(y, dtype=float)
    ln_pref = (
        0.5 * math.log(mu)
        - specfun.ln_gamma_complex(complex(2.0 * nu)).real
        - math.log(n + nu)
        + 0.5 * (specfun.ln_gamma_complex(complex(n + 2.0 * nu)).real
                 - math.log(2.0)
                 - specfun.ln_gamma_complex(complex(n + 1.0)).real)
    )
    series = np.real(specfun.hyp1f1_terminating(n, complex(2.0 * nu), y_arr.astype(complex)))
    with np.errstate(all="ignore"):  # overflow surfaces as the DomainError of finite_result
        return math.exp(ln_pref) * y_arr**nu * np.exp(-np.abs(y_arr) / 2.0) * series


def contraction_check(sys: coulomb.CoulombSystem, n: int, radii) -> list[ValidationReport]:
    """Contraction-limit reports for one (system, n) across increasing radii.

    Three reports: (a) the energy-gap identity E_n(R) - E_n(inf) ==
    (n + nu)^2/(2 R^2), evaluated in exact rational arithmetic (the float
    route loses ~8 digits to cancellation at R = 1e4 and cannot certify
    1e-14); (b) the log-log decay rate of the float-route gap, which must be
    -2; (c) the sup-norm deviation of the rescaled wavefunction from the
    flat-space profile, whose consecutive ratios must stay at or below
    ``SHAPE_TOLERANCE`` (one positive scale is fitted per radius, per the
    normalization-matching convention).
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2 or not np.all(np.diff(radii) > 0.0) or not np.isfinite(radii).all():
        raise DomainError(f"need >= 2 finite, strictly increasing radii, got {radii.tolist()}")
    mu, nu = sys.mu, sys.nu
    tag = f"contraction[nu={nu:g},n={n}]"
    mu_frac, n_nu = Fraction(mu), n + Fraction(nu)
    limit = -(mu_frac**2) / (2 * n_nu**2)
    # (c) compares on a fixed grid of the flat-space coordinate y = 2 mu x/(n + nu);
    # the circle angle at radius R is x/R
    y = np.linspace(0.05, 24.0, 120)
    x = y * (n + nu) / (2.0 * mu)
    target = flat_limit_wavefunction(mu, nu, n, y)
    target_peak = float(np.max(np.abs(target)))
    exact_gaps, identity_gaps, float_gaps, deviations = [], [], [], []
    for r in radii:
        member = dataclasses.replace(sys, geometry=CircleGeometry(float(r)))
        r_frac = Fraction(float(r))
        energy = n_nu**2 / (2 * r_frac**2) - mu_frac**2 / (2 * n_nu**2)  # (a), exact
        identity_gaps.append(float(energy - limit))
        exact_gaps.append(float(n_nu**2 / (2 * r_frac**2)))
        float_gaps.append(coulomb.energy_level(member, n) - flat_limit_energy(mu, nu, n))  # (b)
        phi = x / r  # (c)
        if np.any(phi >= math.pi):
            raise DomainError(f"scaled grid leaves (0, pi) at R = {r:g}")
        psi = coulomb.wavefunction(member, n, phi)
        scale = float(np.dot(psi, target) / np.dot(psi, psi))
        deviations.append(float(np.max(np.abs(scale * psi - target))) / target_peak)
    slope = float(np.polyfit(np.log(radii), np.log(float_gaps), 1)[0])
    reports = [
        _report(f"{tag}/energy-gap", exact_gaps, identity_gaps, 1e-14),
        _report(f"{tag}/gap-decay-rate", [-2.0], [slope], 5e-5, convergence_rate=slope),
    ]
    ratios = tuple(deviations[i + 1] / deviations[i] for i in range(len(deviations) - 1))
    reports.append(ValidationReport(
        case_id=f"{tag}/shape-convergence",
        analytic=tuple(0.0 for _ in deviations),
        numeric=tuple(deviations),
        abs_err=tuple(deviations),
        rel_err=ratios,
        convergence_rate=None,
        passed=max(ratios) <= SHAPE_TOLERANCE,
        tolerance=SHAPE_TOLERANCE,
    ))
    return reports


# ---------------------------------------------------------------------------
# special-function self-checks (independent identities, exact arithmetic)
# ---------------------------------------------------------------------------


def _hyp2f1_rational(n: int, b, c, x) -> complex:
    """Exact terminating Gauss sum at b, c, x given as (re, im) integer pairs over 16.

    The running term and sum are Gaussian integers over one integer
    denominator, so no step reduces a fraction: the ratio of consecutive
    terms, (j - n)(b + j) x/((c + j)(j + 1)), gets a real denominator from
    the conjugate of c + j.  Each component is rounded once to a double by
    int/int true division, which is correctly rounded.
    """
    (b_re, b_im), (c_re, c_im), (x_re, x_im) = b, c, x
    term_re, term_im, total_re, total_im, den = 1, 0, 1, 0, 1
    for j in range(n):
        shifted_b, shifted_c = b_re + 16 * j, c_re + 16 * j  # 16 (b + j), 16 (c + j)
        bx_re, bx_im = shifted_b * x_re - b_im * x_im, shifted_b * x_im + b_im * x_re
        # 16^3 (j - n) (b + j) x conj(c + j), over step = 16^3 (j + 1) |c + j|^2
        ratio_re = (j - n) * (bx_re * shifted_c + bx_im * c_im)
        ratio_im = (j - n) * (bx_im * shifted_c - bx_re * c_im)
        term_re, term_im = (term_re * ratio_re - term_im * ratio_im,
                            term_re * ratio_im + term_im * ratio_re)
        step = 16 * (j + 1) * (shifted_c * shifted_c + c_im * c_im)
        total_re, total_im, den = total_re * step + term_re, total_im * step + term_im, den * step
    return complex(total_re / den, total_im / den)


def specfun_reports() -> list[ValidationReport]:
    """Identity-based checks of the special-function layer.

    The gamma identity |Gamma(1 + i s)|^2 sinh(pi s)/(pi s) = 1 and the
    recurrence under exp(ln Gamma) are closed-form; the hypergeometric
    evaluator is compared against an exact rational-arithmetic summation on a
    deterministic pseudo-random grid up to degree 30.
    """
    sigmas = np.logspace(-3, 1, 100)
    identity = [
        specfun.gamma_abs(complex(1.0, s)) ** 2 * math.sinh(math.pi * s) / (math.pi * s)
        for s in sigmas
    ]
    reports = [_report("specfun/gamma-identity", [1.0] * len(identity), identity, 1e-12)]

    rng = np.random.default_rng(20240817)
    points = []
    for _ in range(40):
        re = rng.uniform(-3.0, 3.0)
        im = rng.uniform(-3.0, 3.0)
        if abs(re - round(re)) < 0.2 and abs(im) < 0.2:
            continue
        points.append(complex(re, im))
    recurrence = [
        abs(np.exp(specfun.ln_gamma_complex(z + 1.0) - specfun.ln_gamma_complex(z)) / z - 1.0)
        for z in points
    ]
    reports.append(_report("specfun/gamma-recurrence", [0.0] * len(recurrence),
                           recurrence, 1e-12))

    diffs = []
    for n in range(0, 31, 3):
        for _ in range(4):
            b = int(rng.integers(-12, 13)), int(rng.integers(-12, 13))
            c = 2 * int(rng.integers(8, 24)), int(rng.integers(-12, 13))
            x = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
            exact = _hyp2f1_rational(n, b, c, x)
            got = specfun.hyp2f1_terminating(
                n, *(complex(re / 16, im / 16) for re, im in (b, c, x)))
            diffs.append(abs(got - exact) / max(abs(exact), 1.0))
    reports.append(_report("specfun/hyp2f1-rational-oracle", [0.0] * len(diffs),
                           diffs, 1e-12))

    # x is kept modest: for x near 1 the alternating series is ill-conditioned
    # and the identity cannot be met at 1e-12 in doubles by any summation order
    binom = []
    for n in (1, 2, 5, 9):
        for x in (0.25, -0.4):
            got = specfun.hyp2f1_terminating(n, 1.7, 1.7, x)
            binom.append(abs(complex(got) - (1.0 - x) ** n) / abs((1.0 - x) ** n))
    reports.append(_report("specfun/binomial-identity", [0.0] * len(binom), binom, 1e-12))
    return reports


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _oscillator_fd_suite() -> list[ValidationReport]:
    geometry = CircleGeometry(1.0)
    main = oscillator.OscillatorSystem(geometry, omega=1.0, k1=1.5, branch=Branch.PLUS)
    union = oscillator.OscillatorSystem(geometry, omega=1.0, k1=0.5, branch=Branch.PLUS)
    return (validate_system(main, n_max=4, grid=4096, tolerance=1e-5, label="oscillator-fd")
            + validate_system(union, n_max=5, grid=4096, tolerance=1e-5,
                              residual_levels=(0, 2), label="oscillator-fd/branch-union"))


def _coulomb_fd_suite() -> list[ValidationReport]:
    system = coulomb.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0, branch=Branch.PLUS)
    return validate_system(system, n_max=3, grid=8192, tolerance=1e-4, label="coulomb-fd")


def _norm_suite() -> list[ValidationReport]:
    geometry = CircleGeometry(1.0)
    reports = []
    for k1, branch in ((1.5, Branch.PLUS), (0.75, Branch.PLUS), (0.5, Branch.PLUS),
                       (0.5, Branch.MINUS), (0.3, Branch.MINUS)):
        system = oscillator.OscillatorSystem(geometry, omega=1.0, k1=k1, branch=branch)
        reports.extend(_norm_reports(system, 4, f"norms/oscillator[k1={k1:g},{branch.value}]"))
    diffs = []  # contour-route against sigma-route normalization constants
    for k1, branch in _COULOMB_FAMILIES:
        for mu_r in (0.5, 1.0, 2.0):
            system = coulomb.CoulombSystem(geometry, mu=mu_r, k1=k1, branch=branch)
            reports.extend(_norm_reports(
                system, 5, f"norms/coulomb[nu={system.nu:g},muR={mu_r:g}]"))
            for n in range(6):
                qn = coulomb.quantize(system, n)
                general = abs(coulomb.contour_norm_constant(n, qn.k0, k1, 1.0, branch))
                direct = coulomb.norm_constant(n, qn.nu, qn.sigma, 1.0)
                diffs.append(abs(general - direct) / direct)
    reports.append(_report("norms/constant-consistency", [0.0] * len(diffs), diffs, 1e-10))
    return reports


def _contraction_suite() -> list[ValidationReport]:
    reports = []
    for k1, branch in _COULOMB_FAMILIES:
        system = coulomb.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=k1, branch=branch)
        for n in (0, 1, 2):
            reports.extend(contraction_check(system, n, (1e2, 1e3, 1e4)))
    return reports


# each entry looks its functions up when called, so a wrapper installed on a
# module attribute (a profiler, a test double) sees every call
_SUITES = {
    "oscillator-fd": _oscillator_fd_suite,
    "coulomb-fd": _coulomb_fd_suite,
    "norms": _norm_suite,
    "specfun": lambda: specfun_reports(),
    "contraction": _contraction_suite,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str) -> list[ValidationReport]:
    """Run a named validation suite (``all`` runs every suite); reports are sorted by case id."""
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suites = _SUITES.values() if name == "all" else (_SUITES[name],)
    reports = [report for suite in suites for report in suite()]
    reports.sort(key=lambda report: report.case_id)
    return reports
