"""Numerics layer: quadrature, FD assembly, Sturm multisection, residuals,
Richardson, and the validation/contraction machinery."""

import math

import numpy as np
import pytest

from circle_sqm import Branch, CircleGeometry
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.errors import DomainError, SingularPointError
from circle_sqm.numerics import (
    TridiagonalMatrix,
    build_hamiltonian,
    contraction_check,
    flat_limit_energy,
    flat_limit_wavefunction,
    gauss_legendre_rule,
    integrate,
    lowest_eigenvalues,
    ode_residual,
    residual_rate,
    richardson_extrapolate,
    run_suite,
    validate_system,
)
from circle_sqm.numerics import eigensolve
from circle_sqm.numerics._kernels import sturm_counts
from circle_sqm.numerics.validate import _report, _residual_reports

from oracles import trapezoid_romberg


class TestQuadrature:
    def test_sine_integral(self):
        value = integrate(np.sin, 16, 8, 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_weights_sum_to_interval(self):
        nodes, weights = gauss_legendre_rule(7, 5, -1.5, 4.0, endpoint_refinement=12)
        assert float(np.sum(weights)) == pytest.approx(5.5, abs=1e-12)
        assert np.all(np.diff(nodes) >= 0.0)

    def test_square_root_endpoint(self):
        # antiderivative (2/3) sin^(3/2): integral over (0, pi/2) is 2/3
        value = integrate(lambda x: np.sqrt(np.sin(x)) * np.cos(x),
                          32, 12, 0.0, math.pi / 2, endpoint_refinement=40)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(4, 4, 1.0, 1.0)

    def test_matches_romberg_on_smooth_integrand(self):
        fn = lambda x: np.exp(-x) * np.cos(3.0 * x)
        mine = integrate(fn, 12, 10, 0.0, 2.0)
        reference = trapezoid_romberg(fn, 0.0, 2.0)
        assert mine == pytest.approx(reference, rel=1e-11)

    def test_refinement_that_lands_a_node_on_the_endpoint_is_refused(self):
        # the last panel is ~67 ulps wide, so its top node rounds onto pi/2
        with pytest.raises(DomainError):
            gauss_legendre_rule(96, 16, 0.0, math.pi / 2, endpoint_refinement=40)

    def test_refinement_that_collapses_panels_is_refused(self):
        # the deepest right panels are narrower than ulp(pi/2)
        with pytest.raises(DomainError):
            gauss_legendre_rule(48, 12, 0.0, math.pi / 2, endpoint_refinement=50)

    def test_validation_rule_is_accepted(self):
        nodes, _ = gauss_legendre_rule(48, 12, 0.0, math.pi / 2, endpoint_refinement=40)
        assert np.all(np.diff(nodes) > 0.0)
        assert 0.0 < nodes[0] and nodes[-1] < math.pi / 2


class TestBuildHamiltonian:
    def test_stencil_entries(self):
        matrix = build_hamiltonian(lambda phi: 2.0 * phi, 1.5, (0.0, 1.0), 32)
        h = 1.0 / 32
        c = 1.0 / (2.0 * 1.5**2 * h * h)
        nodes = matrix.nodes()
        assert nodes[0] == pytest.approx(h / 2)
        assert np.allclose(matrix.diagonal[1:-1], 2.0 * c + 2.0 * nodes[1:-1])
        # endpoint rows carry the antisymmetric-ghost Dirichlet closure
        assert matrix.diagonal[0] == pytest.approx(3.0 * c + 2.0 * nodes[0])
        assert matrix.diagonal[-1] == pytest.approx(3.0 * c + 2.0 * nodes[-1])
        assert np.allclose(matrix.off_diagonal, -c)

    def test_rejects_singular_grid(self):
        def bad_potential(phi):
            return np.where(phi > 0.5, np.inf, 0.0)

        with pytest.raises(SingularPointError):
            build_hamiltonian(bad_potential, 1.0, (0.0, 1.0), 32)

    def test_too_few_nodes(self):
        with pytest.raises(DomainError):
            build_hamiltonian(lambda phi: 0.0 * phi, 1.0, (0.0, 1.0), 8)


class TestSturmEigenvalues:
    def test_two_by_two(self):
        for a, b in ((1.0, 0.5), (-2.0, 3.0), (0.0, 1e-3)):
            matrix = TridiagonalMatrix(np.array([a, a]), np.array([b]), 1.0, 0.0)
            lam = lowest_eigenvalues(matrix, 2)
            assert lam[0] == pytest.approx(a - abs(b), abs=1e-12 * max(1, abs(a) + abs(b)))
            assert lam[1] == pytest.approx(a + abs(b), abs=1e-12 * max(1, abs(a) + abs(b)))

    def test_free_laplacian_discrete_spectrum(self):
        # with the ghost closure the discrete modes are sin(k pi (i+1/2)/N),
        # eigenvalues (1 - cos(k pi / N)) / (R^2 h^2) exactly
        n, radius = 64, 1.3
        matrix = build_hamiltonian(lambda phi: 0.0 * phi, radius, (0.0, math.pi), n)
        h = matrix.grid_step
        got = lowest_eigenvalues(matrix, 6)
        expected = (1.0 - np.cos(np.arange(1, 7) * math.pi / n)) / (radius**2 * h * h)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(20, 200))
            diag = rng.uniform(-5.0, 5.0, n)
            off = rng.uniform(-2.0, 2.0, n - 1)
            matrix = TridiagonalMatrix(diag, off, 1.0, 0.0)
            count = int(rng.integers(1, min(8, n)))
            mine = lowest_eigenvalues(matrix, count)
            dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            scale = max(1.0, float(np.max(np.abs(dense))))
            assert np.max(np.abs(mine - dense[:count])) <= 1e-11 * scale

    def test_one_by_one(self):
        # the off-diagonal is empty, so no pivot floor can be read from it
        for a in (2.0, -3.5):
            matrix = TridiagonalMatrix(np.array([a]), np.array([]), 1.0, 0.0)
            assert lowest_eigenvalues(matrix, 1).tolist() == [a]

    def test_exact_multiplicities(self):
        matrix = TridiagonalMatrix(np.array([1.0, 1.0, 1.0, 2.0, 2.0, -3.0]),
                                   np.zeros(5), 1.0, 0.0)
        lam = lowest_eigenvalues(matrix, 6)
        assert np.allclose(lam, [-3.0, 1.0, 1.0, 1.0, 2.0, 2.0], rtol=0.0, atol=1e-11)

    def test_full_spectrum(self):
        rng = np.random.default_rng(41)
        diag = rng.uniform(-5.0, 5.0, 40)
        off = rng.uniform(-2.0, 2.0, 39)
        mine = lowest_eigenvalues(TridiagonalMatrix(diag, off, 1.0, 0.0), 40)
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(mine - dense)) <= 1e-11 * scale

    def test_multisection_pass_count(self, monkeypatch):
        # one Sturm pass per midpoint would need 63 passes here
        passes = []

        def counting(diag, off_sq, shifts, pivmin):
            passes.append(len(shifts))
            return sturm_counts(diag, off_sq, shifts, pivmin)

        monkeypatch.setattr(eigensolve, "sturm_counts", counting)
        system = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5,
                                      branch=Branch.PLUS)
        matrix = build_hamiltonian(lambda phi: osc.potential(system, phi), 1.0,
                                   (0.0, math.pi / 2), 4096)
        lam = lowest_eigenvalues(matrix, 5)
        assert len(passes) <= 16
        exact = np.array([osc.energy_level(system, n) for n in range(5)])
        assert np.max(np.abs(lam - exact) / exact) <= 1e-4

    def test_sorted_output(self):
        rng = np.random.default_rng(3)
        matrix = TridiagonalMatrix(rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 49), 1.0, 0.0)
        lam = lowest_eigenvalues(matrix, 10)
        assert np.all(np.diff(lam) >= 0.0)

    def test_count_bounds(self):
        matrix = TridiagonalMatrix(np.zeros(4), np.ones(3), 1.0, 0.0)
        with pytest.raises(DomainError):
            lowest_eigenvalues(matrix, 5)
        with pytest.raises(DomainError):
            lowest_eigenvalues(matrix, 0)

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TridiagonalMatrix(np.array([1.0, np.nan]), np.array([0.5]), 1.0, 0.0)

    def test_sturm_counts_match_dense_eigenvalues(self):
        rng = np.random.default_rng(123)
        d = rng.uniform(-4.0, 4.0, 300)
        e = rng.uniform(-2.0, 2.0, 299)
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        shifts = rng.uniform(dense[0] - 1.0, dense[-1] + 1.0, 20)
        # a shift this close to an eigenvalue would test the oracle's roundoff
        assert np.min(np.abs(shifts[:, None] - dense[None, :])) > 1e-8
        counts = sturm_counts(d, e**2, shifts, 1e-300 * float(np.max(e**2)))
        expected = [int(np.sum(dense < s)) for s in shifts]
        assert counts.tolist() == expected

    def test_sturm_count_includes_eigenvalue_at_shift(self):
        # the pivot at row 1 is exactly zero; -pivmin makes it count as negative
        counts = sturm_counts(np.array([1.0, 2.0, 3.0]), np.zeros(2), np.array([2.0]), 1e-300)
        assert counts.tolist() == [2]


class TestBoxSpectrum:
    def test_box_levels_order_h_squared(self):
        exact = 0.5 * np.arange(1, 5) ** 2
        errors = {}
        for n in (128, 256):
            matrix = build_hamiltonian(lambda phi: 0.0 * phi, 1.0, (0.0, math.pi), n)
            errors[n] = np.abs(lowest_eigenvalues(matrix, 4) - exact)
        orders = np.log2(errors[128] / errors[256])
        assert np.all(orders > 1.9)

    def test_richardson_gains_two_digits_on_box(self):
        exact = 0.5 * np.arange(1, 5) ** 2
        coarse = lowest_eigenvalues(
            build_hamiltonian(lambda phi: 0.0 * phi, 1.0, (0.0, math.pi), 128), 4)
        fine = lowest_eigenvalues(
            build_hamiltonian(lambda phi: 0.0 * phi, 1.0, (0.0, math.pi), 256), 4)
        plain = np.abs(fine - exact)
        extrapolated = np.abs(richardson_extrapolate(coarse, fine, 2) - exact)
        assert np.all(extrapolated < 1e-2 * plain)


class TestRichardson:
    def test_fixed_point(self):
        assert richardson_extrapolate(3.7, 3.7, 2) == pytest.approx(3.7)

    def test_exact_cancellation(self):
        energy, delta = 5.0, 0.3
        assert richardson_extrapolate(energy + 4 * delta, energy + delta, 2) == pytest.approx(
            energy, abs=1e-13
        )

    def test_order_validated(self):
        with pytest.raises(DomainError):
            richardson_extrapolate(1.0, 1.0, 0)


class TestOdeResidual:
    def test_sine_mode(self):
        m = 3
        wavefn = lambda phi: np.sin(m * phi)
        bracket = lambda phi: np.full_like(phi, float(m * m))
        r_coarse, h = ode_residual(wavefn, bracket, (0.0, math.pi), 200)
        r_fine, _ = ode_residual(wavefn, bracket, (0.0, math.pi), 400)
        assert r_coarse / r_fine == pytest.approx(4.0, rel=0.05)
        assert r_coarse < h * h * m**4

    def test_oscillator_ground_state_rate(self):
        system = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5)
        eps = osc.reduced_eigenvalue(0, system.k0, 1.5, Branch.PLUS)
        k0 = system.k0
        bracket = lambda phi: (eps - (k0 * k0 - 0.25) / np.cos(phi) ** 2
                               - (1.5**2 - 0.25) / np.sin(phi) ** 2)
        rate, _, _ = residual_rate(lambda phi: osc.wavefunction(system, 0, phi),
                                   bracket, (0.3, math.pi / 2 - 0.3), 1000)
        assert rate > 1.8

    def test_complex_residual_for_coulomb(self):
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)
        energy = cou.energy_level(system, 1)
        bracket = lambda phi: (2.0 * energy + 2.0 / np.tan(phi)
                               + (system.p_squared - 0.25) / np.sin(phi) ** 2)
        value, _ = ode_residual(lambda phi: cou.wavefunction(system, 1, phi),
                                bracket, (0.5, math.pi - 0.5), 600)
        assert value < 1e-3


class TestValidationReports:
    def test_passed_matches_tolerance_rule(self):
        report = _report("case", [1.0, 2.0], [1.0, 2.0 + 1e-6], 1e-5)
        assert report.passed
        assert max(report.rel_err) <= report.tolerance
        report = _report("case", [1.0, 2.0], [1.0, 2.1], 1e-5)
        assert not report.passed

    def test_near_zero_reference_judged_absolutely(self):
        report = _report("case", [0.0], [5e-9], 1e-8)
        assert report.passed
        assert report.rel_err[0] == pytest.approx(5e-9)

    def test_validate_system_rejects_sublinear_coulomb(self):
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=0.5, branch=Branch.PLUS)
        with pytest.raises(DomainError):
            validate_system(system, 2, 64, 1e-4)

    @pytest.mark.parametrize("module, system", [
        (osc, osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5)),
        (cou, cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)),
    ], ids=["oscillator", "coulomb"])
    def test_residual_check_catches_wrong_energy(self, monkeypatch, module, system):
        assert _residual_reports(system, (0,), "x", 1.8)[0].passed
        exact = module.energy_level
        monkeypatch.setattr(module, "energy_level", lambda sys, n: exact(sys, n) + 1e-3)
        assert _residual_reports(system, (0,), "x", 1.8)[0].passed is False

    def test_report_dict_round_trip(self):
        report = _report("case", [1.0], [1.0], 1e-8)
        payload = report.to_dict()
        assert payload["case_id"] == "case"
        assert payload["passed"] is True
        assert payload["tolerance"] == 1e-8


class TestContraction:
    def test_flat_limit_energy_value(self):
        assert flat_limit_energy(1.0, 0.25, 0) == pytest.approx(-8.0)

    def test_gap_example_at_r_100(self):
        system = cou.CoulombSystem(CircleGeometry(100.0), mu=1.0, k1=1.0)
        gap = cou.energy_level(system, 0) - flat_limit_energy(1.0, 1.0, 0)
        assert gap == pytest.approx(5e-5, rel=1e-10)

    def test_flat_limit_profile_norm(self):
        # integral over x of the squared profile is 1/2 (the same half-norm
        # convention the circle states carry); independent quadrature
        for nu in (0.25, 0.75):
            for n in (0, 2):
                y, w = gauss_legendre_rule(40, 12, 1e-12, 60.0, endpoint_refinement=40)
                phi2 = flat_limit_wavefunction(1.0, nu, n, y) ** 2
                # dx = (n + nu)/(2 mu) dy
                norm = float(np.dot(w, phi2)) * (n + nu) / 2.0
                assert norm == pytest.approx(0.5, abs=1e-7)

    def test_contraction_check_requires_increasing_radii(self):
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)
        for radii in ((1e4, 1e3), (1e3,), ()):
            with pytest.raises(DomainError):
                contraction_check(system, 0, radii)

    def test_contraction_check_reports(self):
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=0.5, branch=Branch.MINUS)
        reports = contraction_check(system, 0, (1e2, 1e3, 1e4))
        by_kind = {r.case_id.split("/")[-1]: r for r in reports}
        assert by_kind["energy-gap"].passed
        assert max(by_kind["energy-gap"].rel_err) == 0.0
        assert by_kind["gap-decay-rate"].passed
        assert by_kind["shape-convergence"].passed
        deviations = by_kind["shape-convergence"].numeric
        assert all(b < a for a, b in zip(deviations, deviations[1:]))


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    def test_specfun_suite_passes(self):
        reports = run_suite("specfun")
        assert reports == sorted(reports, key=lambda r: r.case_id)
        assert all(r.passed for r in reports)
