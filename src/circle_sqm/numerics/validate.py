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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import coulomb, oscillator, specfun
from ..errors import DomainError
from ..systems import Branch, CircleGeometry, merged_levels
from .eigensolve import eigenvalue_with_refinement
from .quadrature import NORM_RULE, gauss_legendre_rule
from .residual import residual_rate

RATE_FLOOR = 1.8  # least measured convergence order of FD levels and ODE residuals
SHAPE_TOLERANCE = 0.999  # largest ratio of consecutive contraction shape deviations
IMAG_TOL = 1e-10  # largest relative imaginary residue accepted as roundoff
_NORM_CASES = {oscillator: ("l2-norm", 1.0), coulomb: ("diamond-norm", 0.5)}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one numeric-vs-analytic cross-check.

    ``rel_err`` entries are |numeric - analytic| scaled by max(|analytic|, 1),
    so near-zero reference values are judged absolutely.  ``passed`` is
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
        return {
            "case_id": self.case_id,
            "analytic": list(self.analytic),
            "numeric": list(self.numeric),
            "abs_err": list(self.abs_err),
            "rel_err": list(self.rel_err),
            "convergence_rate": self.convergence_rate,
            "passed": self.passed,
            "tolerance": self.tolerance,
        }


def _report(case_id: str, analytic, numeric, tolerance: float,
            convergence_rate: float | None = None) -> ValidationReport:
    analytic = tuple(float(a) for a in analytic)
    numeric = tuple(float(x) for x in numeric)
    abs_err = tuple(abs(x - a) for a, x in zip(analytic, numeric))
    rel_err = tuple(e / max(abs(a), 1.0) for a, e in zip(analytic, abs_err))
    passed = max(rel_err, default=0.0) <= tolerance
    return ValidationReport(case_id, analytic, numeric, abs_err, rel_err,
                            convergence_rate, passed, tolerance)


def _rate_report(case_id: str, rate: float, floor: float) -> ValidationReport:
    shortfall = max(0.0, (floor - rate) / floor)
    return ValidationReport(
        case_id=case_id,
        analytic=(floor,),
        numeric=(float(rate),),
        abs_err=(abs(rate - floor),),
        rel_err=(shortfall,),
        convergence_rate=float(rate),
        passed=shortfall == 0.0,
        tolerance=0.0,
    )


def _real_part_checked(values: np.ndarray) -> np.ndarray:
    """Strip an imaginary residue that should only be roundoff (IMAG_TOL)."""
    values = np.asarray(values)
    scale = float(np.max(np.abs(values))) or 1.0
    worst = float(np.max(np.abs(values.imag))) / scale
    if worst > IMAG_TOL:
        raise DomainError(f"imaginary residue {worst:.3e} exceeds {IMAG_TOL:g}")
    return values.real


# ---------------------------------------------------------------------------
# finite-difference spectrum validation
# ---------------------------------------------------------------------------


def _module(system):
    """The closed-form module of ``system``: the engine's one dispatch on system type."""
    return oscillator if isinstance(system, oscillator.OscillatorSystem) else coulomb


def _analytic_levels(system, n_max: int) -> list[float]:
    if isinstance(system, coulomb.CoulombSystem) and system.nu < 1.0:
        raise DomainError(
            "FD eigenvalue validation needs boundary exponent nu >= 1 "
            f"(got nu = {system.nu:g}); use norm/residual checks instead"
        )
    rows = merged_levels(system, n_max, _module(system).energy_level)
    return [energy for _, _, energy in rows][: n_max + 1]


def validate_system(system, n_max: int, grid: int, tolerance: float,
                    residual_levels: tuple[int, ...] = (0, 2, 5),
                    label: str | None = None) -> list[ValidationReport]:
    """Full cross-check of one system: FD spectrum, norms, residual rates.

    The FD oracle uses grids (grid, 2*grid) on ``system.motion_domain`` with
    Richardson extrapolation and sees only the potential; for two-branch
    oscillator systems it meets the sorted union of both branch families.
    FD level and ODE residual orders must reach RATE_FLOOR.  ``label``
    defaults to the module name, ``oscillator`` or ``coulomb``.
    """
    module = _module(system)
    label = label or module.__name__.rsplit(".", 1)[-1]
    schedule = f"N={grid}/{2 * grid}"
    count = n_max + 1

    analytic = _analytic_levels(system, n_max)
    coarse, fine, extrapolated = eigenvalue_with_refinement(
        lambda phi: module.potential(system, phi), system.geometry.radius,
        system.motion_domain, grid, count
    )
    reports = [
        _report(f"{label}/levels[{schedule}]", analytic, extrapolated, tolerance)
    ]
    err_coarse = np.abs(coarse - np.asarray(analytic))
    err_fine = np.abs(fine - np.asarray(analytic))
    orders = np.log2(err_coarse / err_fine)
    reports.append(_rate_report(f"{label}/levels-order[{schedule}]",
                                float(np.min(orders)), RATE_FLOOR))
    reports.extend(_norm_reports(system, min(n_max, 5), label))
    reports.extend(_residual_reports(system, residual_levels, label, RATE_FLOOR))
    return reports


def _norm_reports(system, n_max: int, label: str) -> list[ValidationReport]:
    """R * integral of psi_n conj(psi_n) over (0, hi): 1 for the oscillator, 1/2 for Coulomb."""
    module = _module(system)
    nodes, weights = gauss_legendre_rule(*NORM_RULE[:2], 0.0, system.motion_domain[1],
                                         endpoint_refinement=NORM_RULE[2])
    norms = []
    for n in range(n_max + 1):
        psi = module.wavefunction(system, n, nodes)
        norms.append(float(np.real(system.geometry.radius
                                   * np.dot(weights, psi * np.conj(psi)))))
    case, target = _NORM_CASES[module]
    return [_report(f"{label}/{case}", [target] * len(norms), norms, 1e-8)]


def _residual_reports(system, levels: tuple[int, ...], label: str,
                      rate_floor: float) -> list[ValidationReport]:
    """Order of the residual psi'' + 2 R^2 (E_n - V) psi on the middle 60% of (0, hi)."""
    module = _module(system)
    two_r2 = 2.0 * system.geometry.radius**2
    hi = system.motion_domain[1]
    window = (0.2 * hi, hi - 0.2 * hi)
    reports = []
    for n in levels:
        energy = module.energy_level(system, n)
        rate, _, _ = residual_rate(
            lambda phi: module.wavefunction(system, n, phi),
            lambda phi: two_r2 * (energy - module.potential(system, phi)), window, 2000)
        reports.append(_rate_report(f"{label}/residual-order[n={n}]", rate, rate_floor))
    return reports


# ---------------------------------------------------------------------------
# contraction limit (R -> infinity at fixed y)
# ---------------------------------------------------------------------------


def flat_limit_energy(mu: float, nu: float, n: int) -> float:
    """Flat-space limit of the Coulomb level: -mu^2 / (2 (n + nu)^2)."""
    return -(mu * mu) / (2.0 * (n + nu) ** 2)


def flat_limit_wavefunction(mu: float, nu: float, n: int, y) -> np.ndarray:
    """Flat-space limit profile in the scaled coordinate y = 2 mu x/(n + nu)."""
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
    if radii.size < 2 or not np.all(np.diff(radii) > 0.0):
        raise DomainError(f"need at least two strictly increasing radii, got {radii.tolist()}")
    mu, nu, k1, branch = sys.mu, sys.nu, sys.k1, sys.branch
    tag = f"contraction[nu={nu:g},n={n}]"

    # (a) exact-rational gap identity
    nu_frac = Fraction(nu)
    mu_frac = Fraction(mu)
    n_nu = n + nu_frac
    exact_gaps, identity_gaps = [], []
    for r in radii:
        r_frac = Fraction(float(r))
        energy = n_nu**2 / (2 * r_frac**2) - mu_frac**2 / (2 * n_nu**2)
        limit = -(mu_frac**2) / (2 * n_nu**2)
        identity_gaps.append(float(energy - limit))
        exact_gaps.append(float(n_nu**2 / (2 * r_frac**2)))
    reports = [_report(f"{tag}/energy-gap", exact_gaps, identity_gaps, 1e-14)]

    # (b) float-route decay rate
    float_gaps = []
    for r in radii:
        member = coulomb.CoulombSystem(CircleGeometry(float(r)), mu, k1, branch)
        float_gaps.append(coulomb.energy_level(member, n) - flat_limit_energy(mu, nu, n))
    slope = float(np.polyfit(np.log(radii), np.log(float_gaps), 1)[0])
    reports.append(_report(f"{tag}/gap-decay-rate", [-2.0], [slope], 5e-5,
                           convergence_rate=slope))

    # (c) wavefunction shape convergence on a fixed grid of the flat-space
    # coordinate y = 2 mu x/(n + nu); the circle angle at radius R is x/R
    y = np.linspace(0.05, 24.0, 120)
    x = y * (n + nu) / (2.0 * mu)
    target = flat_limit_wavefunction(mu, nu, n, y)
    target_peak = float(np.max(np.abs(target)))
    deviations = []
    for r in radii:
        phi = x / r
        if np.any(phi >= math.pi):
            raise DomainError(f"scaled grid leaves (0, pi) at R = {r:g}")
        member = coulomb.CoulombSystem(CircleGeometry(float(r)), mu, k1, branch)
        psi = _real_part_checked(coulomb.wavefunction(member, n, phi))
        scale = float(np.dot(psi, target) / np.dot(psi, psi))
        deviations.append(float(np.max(np.abs(scale * psi - target))) / target_peak)
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


def _rational_complex_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _rational_complex_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def _hyp2f1_rational(n: int, b, c, x) -> complex:
    """Exact-rational terminating Gauss sum; arguments are (re, im) Fraction pairs."""
    term = (Fraction(1), Fraction(0))
    total = term
    for j in range(n):
        factor = _rational_complex_div(
            _rational_complex_mul((Fraction(-n + j), Fraction(0)),
                                  (b[0] + j, b[1])),
            _rational_complex_mul((c[0] + j, c[1]),
                                  (Fraction(j + 1), Fraction(0))),
        )
        term = _rational_complex_mul(_rational_complex_mul(term, factor), x)
        total = (total[0] + term[0], total[1] + term[1])
    return complex(float(total[0]), float(total[1]))


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
            b = (Fraction(int(rng.integers(-12, 13)), 16),
                 Fraction(int(rng.integers(-12, 13)), 16))
            c = (Fraction(int(rng.integers(8, 24)), 8),
                 Fraction(int(rng.integers(-12, 13)), 16))
            x = (Fraction(int(rng.integers(-10, 11)), 16),
                 Fraction(int(rng.integers(-10, 11)), 16))
            exact = _hyp2f1_rational(n, b, c, x)
            got = specfun.hyp2f1_terminating(
                n,
                complex(float(b[0]), float(b[1])),
                complex(float(c[0]), float(c[1])),
                complex(float(x[0]), float(x[1])),
            )
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

SUITE_NAMES = ("oscillator-fd", "coulomb-fd", "norms", "specfun", "contraction", "all")


def _oscillator_fd_cases():
    geometry = CircleGeometry(1.0)
    main = oscillator.OscillatorSystem(geometry, omega=1.0, k1=1.5, branch=Branch.PLUS)
    union = oscillator.OscillatorSystem(geometry, omega=1.0, k1=0.5, branch=Branch.PLUS)
    return [
        lambda: validate_system(main, n_max=4, grid=4096, tolerance=1e-5,
                                label="oscillator-fd"),
        lambda: validate_system(union, n_max=5, grid=4096, tolerance=1e-5,
                                residual_levels=(0, 2),
                                label="oscillator-fd/branch-union"),
    ]


def _coulomb_fd_cases():
    system = coulomb.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0, branch=Branch.PLUS)
    return [lambda: validate_system(system, n_max=3, grid=8192, tolerance=1e-4,
                                    label="coulomb-fd")]


def _norm_cases():
    geometry = CircleGeometry(1.0)

    def oscillator_norms():
        reports = []
        for k1, branch in ((1.5, Branch.PLUS), (0.75, Branch.PLUS),
                           (0.5, Branch.PLUS), (0.5, Branch.MINUS),
                           (0.3, Branch.MINUS)):
            system = oscillator.OscillatorSystem(geometry, omega=1.0, k1=k1, branch=branch)
            reports.extend(_norm_reports(
                system, 4, f"norms/oscillator[k1={k1:g},{branch.value}]"))
        return reports

    def coulomb_norms():
        reports = []
        for nu, k1, branch in ((0.25, 0.5, Branch.MINUS), (0.75, 0.5, Branch.PLUS),
                               (1.0, 1.0, Branch.PLUS)):
            for mu_r in (0.5, 1.0, 2.0):
                system = coulomb.CoulombSystem(geometry, mu=mu_r, k1=k1, branch=branch)
                reports.extend(_norm_reports(
                    system, 5, f"norms/coulomb[nu={nu:g},muR={mu_r:g}]"))
        return reports

    def constant_consistency():
        diffs = []
        for k1, branch in ((0.5, Branch.MINUS), (0.5, Branch.PLUS), (1.0, Branch.PLUS)):
            nu = 0.5 * (1.0 + branch.sign * k1)
            for mu_r in (0.5, 1.0, 2.0):
                for n in range(6):
                    sigma = mu_r / (n + nu)
                    k0 = complex(-(n + nu), sigma)
                    general = abs(coulomb.contour_norm_constant(n, k0, k1, 1.0, branch))
                    direct = coulomb.norm_constant(n, nu, sigma, 1.0)
                    diffs.append(abs(general - direct) / direct)
        return [_report("norms/constant-consistency", [0.0] * len(diffs), diffs, 1e-10)]

    return [oscillator_norms, coulomb_norms, constant_consistency]


def _contraction_cases():
    radii = (1e2, 1e3, 1e4)
    cases = []
    for nu, k1, branch in ((0.25, 0.5, Branch.MINUS), (0.75, 0.5, Branch.PLUS),
                           (1.0, 1.0, Branch.PLUS)):
        for n in (0, 1, 2):
            system = coulomb.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=k1, branch=branch)
            cases.append(lambda s=system, m=n: contraction_check(s, m, radii))
    return cases


def run_suite(name: str) -> list[ValidationReport]:
    """Run a named validation suite; reports are merged sorted by case id."""
    if name == "all":
        cases = (_oscillator_fd_cases() + _coulomb_fd_cases() + _norm_cases()
                 + [specfun_reports] + _contraction_cases())
    elif name == "oscillator-fd":
        cases = _oscillator_fd_cases()
    elif name == "coulomb-fd":
        cases = _coulomb_fd_cases()
    elif name == "norms":
        cases = _norm_cases()
    elif name == "specfun":
        cases = [specfun_reports]
    elif name == "contraction":
        cases = _contraction_cases()
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")

    reports = [report for case in cases for report in case()]
    reports.sort(key=lambda report: report.case_id)
    return reports
