"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (echoed in the pytest terminal summary)."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from circle_sqm import Branch, CircleGeometry
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm import specfun
from circle_sqm.cli import main as cli_main
from circle_sqm.numerics import (
    contraction_check,
    eigenvalue_with_refinement,
    flat_limit_energy,
    residual_rate,
)
from circle_sqm.systems import spectrum

from conftest import record_acceptance
from oracles import hyp2f1_exact, qc

UNIT = CircleGeometry(1.0)


def check(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {number:02d} {status}: {label} ({detail})")
    assert ok, f"criterion {number} failed: {label} ({detail})"


def norm_grid():
    """(nu, k1, branch, mu R) x n grid shared by criteria 5 and 6: 54 cases."""
    cases = []
    for nu, k1, branch in ((0.25, 0.5, Branch.MINUS), (0.75, 0.5, Branch.PLUS),
                           (1.0, 1.0, Branch.PLUS)):
        for mu_r in (0.5, 1.0, 2.0):
            for n in range(6):
                cases.append((nu, k1, branch, mu_r, n))
    return cases


def test_criterion_1_energy_route_equivalence():
    rng = np.random.default_rng(2718281)
    worst = 0.0
    for _ in range(10_000):
        omega = rng.uniform(0.0, 5.0)
        radius = rng.uniform(0.1, 10.0)
        k1 = rng.uniform(1e-6, 5.0)
        branch = Branch.MINUS if (k1 <= 0.5 and rng.random() < 0.5) else Branch.PLUS
        n = int(rng.integers(0, 21))
        system = osc.OscillatorSystem(CircleGeometry(radius), omega, k1, branch)
        direct = osc.energy_level(system, n)
        routed = osc.energy_from_reduced(system, osc.reduced_eigenvalue(system, n))
        worst = max(worst, abs(direct - routed) / abs(direct))
    check(1, "energy route equivalence, 10^4 tuples", worst <= 1e-12,
          f"max rel dev {worst:.3e}, tol 1e-12")


def test_criterion_2_oscillator_fd():
    system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5, branch=Branch.PLUS)
    exact = np.array([osc.energy_level(system, n) for n in range(5)])
    coarse, fine, extrapolated = eigenvalue_with_refinement(
        lambda phi: osc.potential(system, phi), 1.0, (0.0, math.pi / 2), 4096, 5
    )
    rel = np.abs(extrapolated - exact) / exact
    orders = np.log2(np.abs(coarse - exact) / np.abs(fine - exact))
    ok = bool(np.max(rel) <= 1e-5 and np.min(orders) >= 1.8)
    check(2, "oscillator FD validation (omega=1, k1=3/2, N=4096/8192)", ok,
          f"max rel {np.max(rel):.3e} tol 1e-5, min order {np.min(orders):.2f} floor 1.8")


def test_criterion_3_branch_union():
    system = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.5, branch=Branch.PLUS)
    union = np.array([energy for _, _, energy in spectrum(system, 5)])[:6]
    _, _, extrapolated = eigenvalue_with_refinement(
        lambda phi: osc.potential(system, phi), 1.0,
        (-math.pi / 2, math.pi / 2), 4096, 6
    )
    rel = np.abs(extrapolated - union) / union
    ok = bool(np.max(rel) <= 1e-5)
    check(3, "branch-union FD check (k1=1/2, both sign families)", ok,
          f"max rel {np.max(rel):.3e}, tol 1e-5")


def test_criterion_4_coulomb_fd():
    system = cou.CoulombSystem(UNIT, mu=1.0, k1=1.0, branch=Branch.PLUS)
    exact = np.array([cou.energy_level(system, n) for n in range(4)])
    _, _, extrapolated = eigenvalue_with_refinement(
        lambda phi: cou.potential(system, phi), 1.0, (0.0, math.pi), 8192, 4
    )
    # n = 0 sits at E = 0 exactly: judge it absolutely at the same 1e-4
    scaled = np.abs(extrapolated - exact) / np.maximum(np.abs(exact), 1.0)
    ok = bool(np.max(scaled) <= 1e-4)
    check(4, "coulomb case-(i) FD validation (mu=1, N=8192/16384)", ok,
          f"max scaled err {np.max(scaled):.3e}, tol 1e-4; levels "
          f"{[f'{e:.6g}' for e in extrapolated]}")


def test_criterion_5_diamond_normalization():
    worst = 0.0
    for nu, k1, branch, mu_r, n in norm_grid():
        system = cou.CoulombSystem(UNIT, mu=mu_r, k1=k1, branch=branch)
        assert system.nu == nu
        worst = max(worst, abs(cou.diamond_norm(system, n) - 0.5))
    check(5, "diamond normalization = 1/2 on the 54-case grid", worst <= 1e-8,
          f"max |norm - 1/2| {worst:.3e}, tol 1e-8")


def test_criterion_6_norm_constant_consistency():
    worst = 0.0
    for nu, k1, branch, mu_r, n in norm_grid():
        system = cou.CoulombSystem(UNIT, mu=mu_r, k1=k1, branch=branch)
        assert system.nu == nu
        general = abs(cou.contour_norm_constant(system, n))
        direct = cou.norm_constant(system, n)
        worst = max(worst, abs(general - direct) / direct)
    check(6, "contour vs sigma normalization constants on the 54-case grid",
          worst <= 1e-10, f"max rel dev {worst:.3e}, tol 1e-10")


def test_criterion_7_specfun_oracles():
    sigmas = np.logspace(-3, 1, 100)
    gamma_dev = max(
        abs(specfun.gamma_abs(complex(1.0, s)) ** 2 * math.sinh(math.pi * s)
            / (math.pi * s) - 1.0)
        for s in sigmas
    )
    rng = np.random.default_rng(1618)
    hyp_dev = 0.0
    for n in range(0, 31):
        for _ in range(3):
            b = qc(int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            b = qc(b.re / 16, b.im / 16)
            c = qc(int(rng.integers(10, 30)), int(rng.integers(-6, 7)))
            c = qc(c.re / 8, c.im / 16)
            x = qc(int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            x = qc(x.re / 16, x.im / 16)
            exact = hyp2f1_exact(n, b, c, x)
            got = complex(specfun.hyp2f1_terminating(
                n, b.to_complex(), c.to_complex(), x.to_complex()))
            hyp_dev = max(hyp_dev, abs(got - exact) / max(abs(exact), 1.0))
    ok = gamma_dev <= 1e-12 and hyp_dev <= 1e-12
    check(7, "gamma identity and rational hypergeometric oracle", ok,
          f"gamma dev {gamma_dev:.3e}, hyp dev {hyp_dev:.3e}, tol 1e-12")


def test_criterion_8_ode_residual_rates():
    rates = {}

    oscillator_system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5, branch=Branch.PLUS)
    k0 = oscillator_system.k0
    for n in (0, 2, 5):
        eps = osc.reduced_eigenvalue(oscillator_system, n)
        bracket = lambda phi, eps=eps: (eps - (k0 * k0 - 0.25) / np.cos(phi) ** 2
                                        - (1.5**2 - 0.25) / np.sin(phi) ** 2)
        rate = residual_rate(
            lambda phi, n=n: osc.wavefunction(oscillator_system, n, phi),
            bracket, (0.3, math.pi / 2 - 0.3), 2000)
        rates[f"oscillator n={n}"] = rate

    coulomb_system = cou.CoulombSystem(UNIT, mu=1.0, k1=1.0, branch=Branch.PLUS)
    for n in (0, 2, 5):
        energy = cou.energy_level(coulomb_system, n)
        bracket = lambda phi, energy=energy: (
            2.0 * energy + 2.0 / np.tan(phi)
            + (coulomb_system.p_squared - 0.25) / np.sin(phi) ** 2)
        rate = residual_rate(
            lambda phi, n=n: cou.wavefunction(coulomb_system, n, phi),
            bracket, (0.5, math.pi - 0.5), 2000)
        rates[f"coulomb n={n}"] = rate

    ok = all(rate >= 1.8 for rate in rates.values())
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in rates.items())
    check(8, "ODE residual convergence order >= 1.8", ok, detail)


def test_criterion_9_contraction_limit():
    radii = (1e2, 1e3, 1e4)
    worst_gap = 0.0
    shape_ok = True
    for nu, k1, branch in ((0.25, 0.5, Branch.MINUS), (0.75, 0.5, Branch.PLUS)):
        for n in (0, 1, 2):
            # the shipped level against the exact rational
            # E_n(R) = (n + nu)^2/(2 R^2) - mu^2/(2 (n + nu)^2), mu = 1
            n_nu = n + Fraction(nu)
            for r in radii:
                exact = n_nu**2 / (2 * Fraction(r) ** 2) - 1 / (2 * n_nu**2)
                member = cou.CoulombSystem(CircleGeometry(r), mu=1.0, k1=k1, branch=branch)
                shipped = Fraction(cou.energy_level(member, n))
                worst_gap = max(worst_gap, abs(float((shipped - exact) / exact)))
            system = cou.CoulombSystem(UNIT, mu=1.0, k1=k1, branch=branch)
            reports = {r.case_id.split("/")[-1]: r
                       for r in contraction_check(system, n, radii)}
            deviations = reports["shape-convergence"].numeric
            shape_ok = shape_ok and all(
                b < a for a, b in zip(deviations, deviations[1:]))
    ok = worst_gap <= 1e-14 and shape_ok
    check(9, "contraction limit: shipped level against exact rationals and shape convergence",
          ok, f"max level rel {worst_gap:.3e} tol 1e-14, shapes strictly decreasing: {shape_ok}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    golden_dir = Path(__file__).parent / "golden"
    jobs = [
        (["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
          "--k1", "1", "--levels", "3"], "spectrum_coulomb.json", "spectrum.json"),
        (["wavefunction", "--system", "oscillator", "--omega", "1", "--radius",
          "1", "--k1", "1.5", "--n", "2", "--samples", "8", "--format", "csv"],
         "wavefunction_oscillator.csv", "wave.csv"),
        (["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1", "--k1", "1",
          "--n", "2", "--samples", "8"], "wavefunction_coulomb.json", "wave.json"),
        (["spectrum", "--system", "oscillator", "--omega", "1", "--radius", "1", "--k1", "0.3",
          "--branch", "both", "--levels", "3", "--format", "csv"],
         "spectrum_oscillator.csv", "spectrum.csv"),
        (["validate", "--suite", "specfun"], "validate_specfun.json", "report.json"),
    ]
    ok = True
    details = []
    for args, golden_name, out_name in jobs:
        first = tmp_path / ("a_" + out_name)
        second = tmp_path / ("b_" + out_name)
        code1 = cli_main(args + ["--output", str(first)])
        code2 = cli_main(args + ["--output", str(second)])
        capsys.readouterr()
        identical = first.read_bytes() == second.read_bytes()
        matches_golden = first.read_bytes() == (golden_dir / golden_name).read_bytes()
        ok = ok and identical and matches_golden and code1 == code2 == 0
        details.append(f"{golden_name}: repeat={identical} golden={matches_golden}")
    check(10, "CLI determinism and golden files", ok, "; ".join(details))
