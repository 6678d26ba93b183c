"""Numerics layer: quadrature, FD assembly, Sturm bisection, residuals,
Richardson, and the validation/contraction machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_sqm import Branch, CircleGeometry
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.errors import ConvergenceError, DomainError, SingularPointError
from circle_sqm.numerics import (
    SUITE_NAMES,
    TridiagonalMatrix,
    build_hamiltonian,
    contraction_check,
    flat_limit_energy,
    flat_limit_wavefunction,
    gauss_legendre_rule,
    lowest_eigenvalues,
    ode_residual,
    residual_rate,
    richardson_extrapolate,
    run_suite,
    validate_system,
)
from circle_sqm.numerics import _kernels, eigensolve, validate
from circle_sqm.numerics._kernels import _serial_counts, sturm_counts
from circle_sqm.numerics.quadrature import norm_rule
from circle_sqm.numerics.validate import _report, _residual_reports

from oracles import exact_sturm_counts, trapezoid_romberg


class TestQuadrature:
    def test_sine_integral(self):
        nodes, weights = gauss_legendre_rule(16, 8, 0.0, math.pi)
        value = np.dot(weights, np.sin(nodes))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_weights_sum_to_interval(self):
        nodes, weights = gauss_legendre_rule(7, 5, -1.5, 4.0, endpoint_refinement=12)
        assert float(np.sum(weights)) == pytest.approx(5.5, abs=1e-12)
        assert np.all(np.diff(nodes) >= 0.0)

    def test_square_root_endpoint(self):
        # antiderivative (2/3) sin^(3/2): integral over (0, pi/2) is 2/3
        nodes, weights = gauss_legendre_rule(32, 12, 0.0, math.pi / 2, endpoint_refinement=40)
        value = np.dot(weights, np.sqrt(np.sin(nodes)) * np.cos(nodes))
        assert value == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(4, 4, 1.0, 1.0)

    def test_matches_romberg_on_smooth_integrand(self):
        fn = lambda x: np.exp(-x) * np.cos(3.0 * x)
        nodes, weights = gauss_legendre_rule(12, 10, 0.0, 2.0)
        mine = np.dot(weights, fn(nodes))
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
        with pytest.raises(DomainError):  # width / 2^1100 is below the double range
            gauss_legendre_rule(48, 12, 0.0, 1.0, endpoint_refinement=1100)

    @pytest.mark.parametrize("rule", [(48, 12, 0.0, math.pi, 40), (48, 12, 0.0, math.pi / 2, 40),
                                      (10, 5, -1.0, 2.0, 0), (7, 3, 0.3, 0.9, 5)])
    def test_matches_panel_loop(self, rule):
        # the rule built one panel at a time gives the same bits
        panels, order, a, b, levels = rule
        width = (b - a) / panels
        breaks = [a + i * width for i in range(panels + 1)]
        if levels:
            breaks = ([a] + [a + width / 2.0**j for j in range(levels, 0, -1)] + breaks[1:-1]
                      + [b - width / 2.0**j for j in range(1, levels + 1)] + [b])
        xs, ws = np.polynomial.legendre.leggauss(order)
        halves = [0.5 * (hi - lo) for lo, hi in zip(breaks[:-1], breaks[1:])]
        nodes = np.concatenate([lo + half * (xs + 1.0) for lo, half in zip(breaks, halves)])
        weights = np.concatenate([half * ws for half in halves])
        got_nodes, got_weights = gauss_legendre_rule(*rule)
        assert got_nodes.tobytes() == nodes.tobytes()
        assert got_weights.tobytes() == weights.tobytes()

    def test_rules_are_built_once_and_read_only(self):
        nodes, weights = norm_rule(math.pi)
        assert norm_rule(math.pi)[0] is nodes
        assert gauss_legendre_rule(48, 12, 0.0, math.pi, endpoint_refinement=40)[1] is weights
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0
        assert nodes[0] > 0.0 and weights[0] > 0.0

    def test_validation_rule_is_accepted(self):
        nodes, _ = norm_rule(math.pi / 2)
        assert np.all(np.diff(nodes) > 0.0)
        assert 0.0 < nodes[0] and nodes[-1] < math.pi / 2


class TestBuildHamiltonian:
    def test_stencil_entries(self):
        matrix = build_hamiltonian(lambda phi: 2.0 * phi, 1.5, (0.0, 1.0), 32)
        h = 1.0 / 32
        c = 1.0 / (2.0 * 1.5**2 * h * h)
        nodes = (np.arange(32) + 0.5) * h
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
            matrix = TridiagonalMatrix(np.array([a, a]), np.array([b]))
            lam = lowest_eigenvalues(matrix, 2)
            assert lam[0] == pytest.approx(a - abs(b), abs=1e-12 * max(1, abs(a) + abs(b)))
            assert lam[1] == pytest.approx(a + abs(b), abs=1e-12 * max(1, abs(a) + abs(b)))

    def test_free_laplacian_discrete_spectrum(self):
        # with the ghost closure the discrete modes are sin(k pi (i+1/2)/N),
        # eigenvalues (1 - cos(k pi / N)) / (R^2 h^2) exactly
        n, radius = 64, 1.3
        matrix = build_hamiltonian(lambda phi: 0.0 * phi, radius, (0.0, math.pi), n)
        h = math.pi / n
        got = lowest_eigenvalues(matrix, 6)
        expected = (1.0 - np.cos(np.arange(1, 7) * math.pi / n)) / (radius**2 * h * h)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(20, 200))
            diag = rng.uniform(-5.0, 5.0, n)
            off = rng.uniform(-2.0, 2.0, n - 1)
            matrix = TridiagonalMatrix(diag, off)
            count = int(rng.integers(1, min(8, n)))
            mine = lowest_eigenvalues(matrix, count)
            dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            scale = max(1.0, float(np.max(np.abs(dense))))
            assert np.max(np.abs(mine - dense[:count])) <= 1e-11 * scale

    def test_one_by_one(self):
        # the off-diagonal is empty, so no pivot floor can be read from it
        for a in (2.0, -3.5):
            matrix = TridiagonalMatrix(np.array([a]), np.array([]))
            assert lowest_eigenvalues(matrix, 1).tolist() == [a]

    def test_exact_multiplicities(self):
        matrix = TridiagonalMatrix(np.array([1.0, 1.0, 1.0, 2.0, 2.0, -3.0]),
                                   np.zeros(5))
        lam = lowest_eigenvalues(matrix, 6)
        assert np.allclose(lam, [-3.0, 1.0, 1.0, 1.0, 2.0, 2.0], rtol=0.0, atol=1e-11)

    def test_full_spectrum(self):
        rng = np.random.default_rng(41)
        diag = rng.uniform(-5.0, 5.0, 40)
        off = rng.uniform(-2.0, 2.0, 39)
        mine = lowest_eigenvalues(TridiagonalMatrix(diag, off), 40)
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(mine - dense)) <= 1e-11 * scale

    def test_bisection_work_bound(self, monkeypatch):
        # a cold solve counts one shift per distinct open bracket in each pass;
        # the asinh split narrows the Gershgorin interval to the levels and
        # regula falsi closes the isolated brackets, in about half the 63
        # passes that bisection alone needs at N = 4096, and a solve started
        # from the coarse levels needs fewer still at N = 8192
        passes = []

        def counting(diag, off, shifts):
            passes.append(len(shifts))
            return sturm_counts(diag, off, shifts)

        monkeypatch.setattr(eigensolve, "sturm_counts", counting)
        system = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5,
                                      branch=Branch.PLUS)

        def matrix(n):
            return build_hamiltonian(lambda phi: osc.potential(system, phi), 1.0,
                                     (0.0, math.pi / 2), n)

        count = 5
        coarse = lowest_eigenvalues(matrix(4096), count)
        assert max(passes) <= count
        assert len(passes) <= 34
        passes.clear()
        fine = lowest_eigenvalues(matrix(8192), count, guess=coarse)
        assert len(passes) <= 25
        exact = np.array([osc.energy_level(system, n) for n in range(count)])
        assert np.max(np.abs(coarse - exact) / exact) <= 1e-4
        assert np.max(np.abs(fine - exact) / exact) <= 1e-4

    @pytest.mark.parametrize("name", ["oscillator", "oscillator-branch-union", "coulomb"])
    def test_cold_fd_solve_counts_serially_once(self, monkeypatch, name):
        # the cold solves of `validate --suite all`: no shift lands on the
        # constant part of the FD diagonal, where the reduction's pivots grow
        # and force a serial recount, so the one serial pass is the certificate
        geometry = CircleGeometry(1.0)
        system, module, grid, count = {
            "oscillator": (osc.OscillatorSystem(geometry, omega=1.0, k1=1.5, branch=Branch.PLUS),
                           osc, 4096, 5),
            "oscillator-branch-union": (
                osc.OscillatorSystem(geometry, omega=1.0, k1=0.5, branch=Branch.PLUS),
                osc, 4096, 6),
            "coulomb": (cou.CoulombSystem(geometry, mu=1.0, k1=1.0, branch=Branch.PLUS),
                        cou, 8192, 4),
        }[name]
        calls = []

        def counting(diag, off, shifts):
            calls.append(len(shifts))
            return _serial_counts(diag, off, shifts)

        monkeypatch.setattr(_kernels, "_serial_counts", counting)
        monkeypatch.setattr(eigensolve, "_serial_counts", counting)
        matrix = build_hamiltonian(lambda phi: module.potential(system, phi), 1.0,
                                   system.motion_domain, grid)
        lowest_eigenvalues(matrix, count)
        assert calls == [2 * count]

    @pytest.mark.parametrize("name", ["half", "one-and-a-half", "reversed", "all-equal",
                                      "with-inf", "all-nan"])
    def test_warm_start_returns_cold_levels(self, name):
        # the guess only chooses the first pass's shifts; every count still
        # tightens every bracket, so a wrong guess cannot move a level
        system = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5,
                                      branch=Branch.PLUS)
        matrix = build_hamiltonian(lambda phi: osc.potential(system, phi), 1.0,
                                   (0.0, math.pi / 2), 1024)
        cold = lowest_eigenvalues(matrix, 5)
        guess = {
            "half": 0.5 * cold,
            "one-and-a-half": 1.5 * cold,
            "reversed": cold[::-1],
            "all-equal": np.full(5, cold[2]),
            "with-inf": np.where(np.arange(5) == 1, np.inf, cold),
            "all-nan": np.full(5, np.nan),
        }[name]
        warm = lowest_eigenvalues(matrix, 5, guess=guess)
        assert np.max(np.abs(warm - cold) / cold) <= 1e-12

    def test_guess_needs_one_level_per_eigenvalue(self):
        matrix = TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.ones(2))
        with pytest.raises(DomainError):
            lowest_eigenvalues(matrix, 2, guess=[1.0])

    def test_inverted_bracket_refused(self, monkeypatch):
        # counts reversed within a pass are not monotone in the shift: the
        # second pass puts a bracket's lower end above its upper end
        def reversed_counts(diag, off, shifts):
            counts, logdet = sturm_counts(diag, off, shifts)
            return counts[::-1], logdet

        monkeypatch.setattr(eigensolve, "sturm_counts", reversed_counts)
        matrix = TridiagonalMatrix(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(3))
        with pytest.raises(ConvergenceError, match="inverted"):
            lowest_eigenvalues(matrix, 4)

    def test_certificate_refuses_a_wrong_count(self, monkeypatch):
        # a monotone count of T - 0.5 closes every bracket 0.5 too high; only
        # the serial certificate can see it
        def offset_counts(diag, off, shifts):
            return sturm_counts(diag, off, shifts - 0.5)

        monkeypatch.setattr(eigensolve, "sturm_counts", offset_counts)
        rng = np.random.default_rng(5)
        matrix = TridiagonalMatrix(rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 49))
        with pytest.raises(ConvergenceError, match="serial"):
            lowest_eigenvalues(matrix, 3)

    def test_sorted_output(self):
        rng = np.random.default_rng(3)
        matrix = TridiagonalMatrix(rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 49))
        lam = lowest_eigenvalues(matrix, 10)
        assert np.all(np.diff(lam) >= 0.0)

    def test_count_bounds(self):
        matrix = TridiagonalMatrix(np.zeros(4), np.ones(3))
        with pytest.raises(DomainError):
            lowest_eigenvalues(matrix, 5)
        with pytest.raises(DomainError):
            lowest_eigenvalues(matrix, 0)

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(DomainError):
            TridiagonalMatrix(np.array([1.0, np.nan]), np.array([0.5]))

    def test_sturm_counts_match_dense_eigenvalues(self):
        rng = np.random.default_rng(123)
        d = rng.uniform(-4.0, 4.0, 300)
        e = rng.uniform(-2.0, 2.0, 299)
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        shifts = rng.uniform(dense[0] - 1.0, dense[-1] + 1.0, 20)
        # a shift this close to an eigenvalue would test the oracle's roundoff
        assert np.min(np.abs(shifts[:, None] - dense[None, :])) > 1e-8
        counts, _ = sturm_counts(d, e, shifts)
        expected = [int(np.sum(dense < s)) for s in shifts]
        assert counts.tolist() == expected

    @pytest.mark.parametrize("n", [5, 40, 120])
    def test_logdet_matches_dense_slogdet(self, n):
        # midway between dense eigenvalues the determinant is well conditioned;
        # 5 rows are counted by the serial tail alone, 120 rows mostly by the
        # reduction (none of these shifts grows its pivots)
        rng = np.random.default_rng(n)
        d = rng.uniform(-4.0, 4.0, n)
        e = rng.uniform(-2.0, 2.0, n - 1)
        dense = np.linalg.eigvalsh(_tridiagonal(d, e))
        shifts = np.concatenate(([dense[0] - 1.0], 0.5 * (dense[:-1] + dense[1:])))
        for chosen in (shifts, shifts[::9]):  # fewer shifts leave more rows to the serial tail
            counts, logdet = sturm_counts(d, e, chosen)
            expected = [np.linalg.slogdet(_tridiagonal(d, e) - s * np.eye(n))[1]
                        for s in chosen]
            assert counts.tolist() == np.searchsorted(dense, chosen).tolist()
            assert np.allclose(logdet, expected, rtol=1e-12, atol=1e-12)

    def test_logdet_is_nan_for_a_grown_shift(self):
        diag, off, shift = _pinned_miscount()
        counts, logdet = sturm_counts(diag, off, np.concatenate((shift, [1e30])))
        assert counts.tolist()[0] == 3
        assert np.isnan(logdet[0]) and np.isfinite(logdet[1])

    def test_sturm_count_includes_eigenvalue_at_shift(self):
        # the pivot at row 1 is exactly zero; -pivmin makes it count as negative
        counts, _ = sturm_counts(np.array([1.0, 2.0, 3.0]), np.zeros(2), np.array([2.0]))
        assert counts.tolist() == [2]


def _tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _glued_wilkinson(copies=20, link=1e-14):
    diag = np.tile(np.abs(np.arange(-10.0, 11.0)), copies)
    off = np.ones(21 * copies - 1)
    off[20::21] = link
    return diag, off


def _graded(n, span, rng):
    """Random indefinite graded matrix: entries of size 10^-span .. 10^span."""
    g = 10.0 ** np.linspace(-span, span, n)
    diag = g * rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)
    off = np.sqrt(g[:-1] * g[1:]) * rng.uniform(0.1, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    return diag, off


def _pinned_miscount():
    """A graded matrix and a shift whose reduction pivots grow until it miscounts."""
    n = 800
    g = 10.0 ** np.linspace(-30, 30, n)
    diag = g * np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    off = 0.9 * np.sqrt(g[:-1] * g[1:])
    return diag, off, np.array([-2.9808692615895942e29])


def _hard_matrices():
    rng = np.random.default_rng(2026)
    laplacian = build_hamiltonian(lambda phi: 0.0 * phi, 1.3, (0.0, math.pi), 64)
    h = math.pi / 64
    on_eigenvalues = (1.0 - np.cos(np.arange(1, 11) * math.pi / 64)) / (1.3**2 * h * h)
    g = 10.0 ** np.linspace(-100, 100, 200)
    tiny = 2.0**-532  # ~1.1e-160, chosen so that off**2 is an exact subnormal
    return {
        "free-laplacian": (laplacian.diagonal, laplacian.off_diagonal, on_eigenvalues),
        "zero-diagonal": (np.zeros(100), rng.uniform(0.5, 2.0, 99) * rng.choice([-1, 1], 99),
                          np.array([0.0, 1e-320, -1e-320])),
        "glued-wilkinson": (*_glued_wilkinson(), np.array([0.0, 1.0, 5.0, 10.0])),
        "graded-positive": (g, 0.5 * np.sqrt(g[:-1] * g[1:]), np.array([0.0, -1e90, 1e-50])),
        "entries-1e150": (rng.uniform(-2.0, 2.0, 100) * 1e150,
                          rng.uniform(0.5, 1.5, 99) * 1e150, np.array([0.0])),
        "entries-1e-160": (rng.uniform(-2.0, 2.0, 100) * tiny,
                           rng.integers(1, 32, 99) * tiny, np.array([0.0])),
        # e^2 beyond the double range at both ends
        "entries-1e200": (rng.uniform(-2.0, 2.0, 100) * 1e200,
                          rng.uniform(0.5, 1.5, 99) * 1e200, np.array([0.0])),
        "entries-1e-200": (rng.uniform(-2.0, 2.0, 100) * 1e-200,
                           rng.uniform(0.5, 1.5, 99) * 1e-200, np.array([0.0])),
    }


class TestSturmHardCases:
    """Both Sturm kernels against oracles that share no code with them:
    ``np.linalg.eigvalsh`` and a 400-digit LDL^T count (tests/oracles.py)."""

    @pytest.mark.parametrize("name", list(_hard_matrices()))
    def test_counts_match_dense_eigenvalues(self, name):
        diag, off, special = _hard_matrices()[name]
        dense = np.linalg.eigvalsh(_tridiagonal(diag, off))
        norm = float(np.max(np.abs(dense)))
        gaps = np.concatenate(([dense[0] - norm], 0.5 * (dense[:-1] + dense[1:]),
                               [dense[-1] + norm]))
        shifts = np.concatenate((gaps, dense, special))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, _ = sturm_counts(diag, off, shifts)
            serial = _serial_counts(diag, off, shifts)  # the solver's certificate
        delta = 1e-8 * norm
        lower = np.searchsorted(dense, shifts - delta, side="left")
        upper = np.searchsorted(dense, shifts + delta, side="right")
        far = lower == upper
        exact = exact_sturm_counts(diag, off, special)
        for got in (counts, serial):
            assert np.all(got[far] == lower[far])
            # nearer than delta the dense eigenvalues cannot decide; stay inside them
            assert np.all((lower <= got) & (got <= upper))
            if name != "free-laplacian":  # whose special shifts sit on eigenvalues
                assert got[-len(special):].tolist() == exact

    def test_counts_match_exact_on_oscillator_hamiltonian(self):
        system = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5,
                                      branch=Branch.PLUS)
        matrix = build_hamiltonian(lambda phi: osc.potential(system, phi), 1.0,
                                   (0.0, math.pi / 2), 16384)
        diag, off = matrix.diagonal, matrix.off_diagonal
        norm = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))  # >= ||T||
        # between levels 2 and 3, and on the constant part of the diagonal
        shifts = np.array([37.0, 1.088e8])
        delta = 1e-8 * norm
        below = exact_sturm_counts(diag, off, shifts - delta)
        assert below == exact_sturm_counts(diag, off, shifts + delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, _ = sturm_counts(diag, off, shifts)
        assert counts.tolist() == below

    def test_random_graded_sweep(self, monkeypatch):
        # 60 indefinite graded matrices: none refused, every level within
        # 1e-11 ||T|| of the dense eigenvalues, and no solve taking more
        # passes than the 80 of bisection alone
        passes = []

        def counting(diag, off, shifts):
            passes[-1] += 1
            return sturm_counts(diag, off, shifts)

        monkeypatch.setattr(eigensolve, "sturm_counts", counting)
        rng = np.random.default_rng(60)
        for _ in range(60):
            n = int(np.exp(rng.uniform(math.log(50), math.log(600))))
            diag, off = _graded(n, rng.uniform(5.0, 60.0), rng)
            dense = np.linalg.eigvalsh(_tridiagonal(diag, off))
            passes.append(0)
            got = lowest_eigenvalues(TridiagonalMatrix(diag, off), n)
            assert np.max(np.abs(got - dense)) <= 1e-11 * np.max(np.abs(dense))
        print(f"graded sweep: {sum(passes)} passes ({min(passes)}-{max(passes)} per solve)")
        assert max(passes) <= 80

    def test_growth_guard_on_pinned_miscount(self, monkeypatch):
        # without its growth guard the reduction counts 4 here; the exact count is 3
        diag, off, shift = _pinned_miscount()
        assert exact_sturm_counts(diag, off, shift) == [3]
        assert int(np.sum(np.linalg.eigvalsh(_tridiagonal(diag, off)) < shift[0])) == 3
        assert sturm_counts(diag, off, shift)[0].tolist() == [3]
        monkeypatch.setattr(_kernels, "_GROWTH", np.inf)
        assert sturm_counts(diag, off, shift)[0].tolist() == [4]


@st.composite
def _tridiagonals(draw):
    """(diag, off, signs): a random tridiagonal of 1 to 256 rows and a sign per off entry."""
    n = draw(st.integers(1, 256))
    diag = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    off = draw(st.lists(st.floats(-10.0, 10.0), min_size=n - 1, max_size=n - 1))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(off), np.array(signs)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(matrix=_tridiagonals())
def test_reduction_reads_off_diagonal_magnitudes(matrix):
    # both kernels read |off|, so neither sees the signs; midway between
    # well-separated dense eigenvalues both kernels count the eigenvalues below
    diag, off, signs = matrix
    dense = np.linalg.eigvalsh(_tridiagonal(diag, off))
    apart = np.flatnonzero(np.diff(dense) > 1e-6 * np.max(np.abs(dense)))
    midway = 0.5 * (dense[apart] + dense[apart + 1])
    shifts = np.concatenate((dense, midway))
    counts, _ = sturm_counts(diag, off, shifts)
    assert counts.tolist() == sturm_counts(diag, signs * off, shifts)[0].tolist()
    assert counts[dense.size:].tolist() == (apart + 1).tolist()
    assert counts[dense.size:].tolist() == _serial_counts(diag, off, midway).tolist()


class TestSolverScaleEnvelope:
    """Levels at every scale of the matrix: accurate to 1e-11 relative, or refused."""

    def test_scaled_matrix_accurate_or_refused(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(-2, 2, 40)
        e = rng.uniform(0.5, 1.5, 39) * rng.choice([-1, 1], 39)
        dense = np.linalg.eigvalsh(_tridiagonal(d, e))[:3]
        envelope = (1e-250, 1e250)  # of the largest Gershgorin bound, as README states
        gershgorin = np.max(np.abs(d) + np.concatenate(([0.0], np.abs(e)))
                            + np.concatenate((np.abs(e), [0.0])))
        # every k within +-170, every 4th k beyond it, and the neighbours of the bounds
        ks = sorted({*range(-170, 171), *range(-308, -170, 4), *range(171, 308, 4),
                     -252, -251, -250, -249, 248, 249, 250, 251})
        refused = []
        for k in ks:
            scale = 10.0**k
            try:
                got = lowest_eigenvalues(TridiagonalMatrix(d * scale, e * scale), 3) / scale
            except ConvergenceError:
                refused.append(k)
                continue
            assert np.max(np.abs(got - dense) / np.abs(dense)) <= 1e-11, k
        # refused exactly where the scale leaves the stated envelope
        assert refused == [k for k in ks
                           if not envelope[0] <= gershgorin * 10.0**k <= envelope[1]]

    @pytest.mark.parametrize("radius", [1e8, 1e10, 1e100, 1e-100])
    def test_box_levels_at_large_radius(self, radius):
        n = 256
        h = math.pi / n
        matrix = build_hamiltonian(lambda phi: 0.0 * phi, radius, (0.0, math.pi), n)
        exact = (1.0 - np.cos(np.arange(1, 5) * math.pi / n)) / (radius**2 * h * h)
        assert np.max(np.abs(lowest_eigenvalues(matrix, 4) - exact) / exact) <= 1e-11

    def test_zero_matrix_refused(self):
        # it has no scale: no bracket floor or certificate tolerance can be set
        with pytest.raises(ConvergenceError):
            lowest_eigenvalues(TridiagonalMatrix(np.zeros(20), np.zeros(19)), 2)

    def test_levels_order_at_large_radius(self):
        # levels near 1e-19: an absolute floor of 1e-24 once stopped their
        # brackets at about 1e-4 relative, and the measured order read -1.88
        system = osc.OscillatorSystem(CircleGeometry(1e10), omega=0.0, k1=1.5)
        reports = validate_system(system, 2, 1024, 1e-5, residual_levels=(0,), label="x")
        assert reports[1].case_id == "x/levels-order[N=1024/2048]"
        assert reports[1].convergence_rate > 1.9
        assert all(report.passed for report in reports)

    def test_levels_judged_in_the_energy_unit_at_large_radius(self, monkeypatch):
        # levels near 1e-19 once read rel_err near 1e-30 whatever their error,
        # as max(|E|, 1) scaled them; 2.2e-6 relative is what a broken solver returned
        system = osc.OscillatorSystem(CircleGeometry(1e10), omega=0.0, k1=1.5)
        honest = validate_system(system, 2, 1024, 1e-6, residual_levels=(), label="x")
        assert honest[0].case_id == "x/levels[N=1024/2048]" and honest[0].passed
        solve = validate.eigenvalue_with_refinement

        def perturbed(*args):
            coarse, fine, extrapolated = solve(*args)
            return coarse, fine, extrapolated * (1.0 + 2.2e-6)

        monkeypatch.setattr(validate, "eigenvalue_with_refinement", perturbed)
        levels, order = validate_system(system, 2, 1024, 1e-6, residual_levels=(),
                                        label="x")[:2]
        assert not levels.passed and min(levels.rel_err) > 2e-6
        assert order.passed


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
        extrapolated = np.abs(richardson_extrapolate(coarse, fine) - exact)
        assert np.all(extrapolated < 1e-2 * plain)


class TestRichardson:
    def test_fixed_point(self):
        assert richardson_extrapolate(3.7, 3.7) == pytest.approx(3.7)

    def test_exact_cancellation(self):
        energy, delta = 5.0, 0.3
        assert richardson_extrapolate(energy + 4 * delta, energy + delta) == pytest.approx(
            energy, abs=1e-13
        )


class TestOdeResidual:
    def test_sine_mode(self):
        m = 3
        wavefn = lambda phi: np.sin(m * phi)
        bracket = lambda phi: np.full_like(phi, float(m * m))
        h = math.pi / 200
        r_coarse = ode_residual(wavefn, bracket, (0.0, math.pi), 200)
        r_fine = ode_residual(wavefn, bracket, (0.0, math.pi), 400)
        assert r_coarse / r_fine == pytest.approx(4.0, rel=0.05)
        assert r_coarse < h * h * m**4

    def test_oscillator_ground_state_rate(self):
        system = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5)
        eps = osc.reduced_eigenvalue(0, system.k0, 1.5, Branch.PLUS)
        k0 = system.k0
        bracket = lambda phi: (eps - (k0 * k0 - 0.25) / np.cos(phi) ** 2
                               - (1.5**2 - 0.25) / np.sin(phi) ** 2)
        rate = residual_rate(lambda phi: osc.wavefunction(system, 0, phi),
                             bracket, (0.3, math.pi / 2 - 0.3), 1000)
        assert rate > 1.8

    def test_complex_residual_for_coulomb(self):
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)
        energy = cou.energy_level(system, 1)
        bracket = lambda phi: (2.0 * energy + 2.0 / np.tan(phi)
                               + (system.p_squared - 0.25) / np.sin(phi) ** 2)
        value = ode_residual(lambda phi: cou.wavefunction(system, 1, phi),
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

    def test_validate_system_refuses_unresolved_coulomb_norm(self):
        # the norm reports share diamond_norm's rule and its mu R > 1e3 refusal
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=2e3, k1=1.0, branch=Branch.PLUS)
        with pytest.raises(DomainError, match="mu R"):
            cou.diamond_norm(system, 0)
        with pytest.raises(DomainError, match="mu R"):
            validate_system(system, 0, 64, 1e-4, residual_levels=())

    def test_coulomb_norm_refused_before_solving(self, monkeypatch):
        monkeypatch.setattr(validate, "eigenvalue_with_refinement",
                            lambda *args: pytest.fail("solved a system it then refused"))
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=2e3, k1=1.0, branch=Branch.PLUS)
        with pytest.raises(DomainError, match="mu R"):
            validate_system(system, 0, 64, 1e-4, residual_levels=())

    @pytest.mark.parametrize("module, system", [
        (osc, osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5)),
        (cou, cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)),
    ], ids=["oscillator", "coulomb"])
    def test_residual_check_catches_wrong_energy(self, monkeypatch, module, system):
        assert _residual_reports(system, (0,), "x")[0].passed
        exact = module.energy_level
        monkeypatch.setattr(module, "energy_level", lambda sys, n: exact(sys, n) + 1e-3)
        assert _residual_reports(system, (0,), "x")[0].passed is False

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
        for radii in ((1e4, 1e3), (1e3,), (), (0.0, 1e3)):
            with pytest.raises(DomainError):
                contraction_check(system, 0, radii)

    def test_contraction_check_requires_finite_radii(self):
        system = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)
        with pytest.raises(DomainError, match="finite"):
            contraction_check(system, 0, (1e2, math.inf))

    def test_flat_limit_wavefunction_requires_positive_mu(self):
        for mu in (0.0, -1.0):
            with pytest.raises(DomainError, match="mu"):
                flat_limit_wavefunction(mu, 0.5, 0, [1.0])

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
        with pytest.raises(DomainError):
            run_suite("bogus")

    @pytest.mark.parametrize("name", [name for name in SUITE_NAMES if name != "all"])
    def test_suite_passes(self, name):
        reports = run_suite(name)
        case_ids = [r.case_id for r in reports]
        assert case_ids == sorted(set(case_ids))  # sorted and unique
        assert all(r.passed for r in reports), [r.case_id for r in reports if not r.passed]


def test_public_names_resolve():
    import circle_sqm
    import circle_sqm.numerics

    for package in (circle_sqm, circle_sqm.numerics):
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert missing == [], package.__name__
