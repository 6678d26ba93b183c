"""Coulomb module: duality dictionary, quantization closure, wavefunction
reality, diamond pairing and both normalization-constant routes."""

import cmath
import math
import warnings

import numpy as np
import pytest

from circle_sqm import Branch, CircleGeometry, Parity
from circle_sqm import coulomb as cou
from circle_sqm.errors import BranchError, DomainError, SingularPointError
from circle_sqm.numerics.quadrature import gauss_legendre_rule, norm_rule
from circle_sqm.systems import spectrum

from oracles import coulomb_state_mpmath

UNIT = CircleGeometry(1.0)


def case_i(mu=1.0, radius=1.0):
    return cou.CoulombSystem(CircleGeometry(radius), mu=mu, k1=1.0, branch=Branch.PLUS)


def case_ii(branch, mu=1.0, radius=1.0):
    return cou.CoulombSystem(CircleGeometry(radius), mu=mu, k1=0.5, branch=branch)


class TestSystemInvariants:
    def test_mu_positive(self):
        with pytest.raises(DomainError):
            cou.CoulombSystem(UNIT, mu=0.0, k1=1.0)
        with pytest.raises(DomainError):
            cou.CoulombSystem(UNIT, mu=-1.0, k1=1.0)

    def test_k1_window(self):
        for k1 in (2.0, math.sqrt(2.0), -0.5, math.nan):
            with pytest.raises(DomainError, match="k1"):
                cou.CoulombSystem(UNIT, mu=1.0, k1=k1)
        cou.CoulombSystem(UNIT, mu=1.0, k1=0.0)  # p^2 = 1/2 boundary is included

    def test_branch_rule(self):
        with pytest.raises(BranchError):
            cou.CoulombSystem(UNIT, mu=1.0, k1=1.0, branch=Branch.MINUS)
        case_ii(Branch.MINUS)

    def test_nu_values(self):
        assert case_i().nu == 1.0
        assert case_ii(Branch.PLUS).nu == 0.75
        assert case_ii(Branch.MINUS).nu == 0.25

    def test_motion_domain(self):
        for system in (case_i(), cou.CoulombSystem(UNIT, mu=1.0, k1=0.5)):
            assert system.motion_domain == (0.0, math.pi)
        assert case_i().two_sided
        assert not cou.CoulombSystem(UNIT, mu=1.0, k1=0.5).two_sided

    def test_p_squared(self):
        assert case_i().p_squared == pytest.approx(0.25)
        assert case_ii(Branch.PLUS).p_squared == pytest.approx(7.0 / 16.0)


class TestPotential:
    def test_zero_at_equator_case_i(self):
        # cot(pi/2) = 0 and the inverse-square coefficient vanishes for p^2 = 1/4
        assert cou.potential(case_i(), math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_cot_term(self):
        assert cou.potential(case_i(), math.pi / 4) == pytest.approx(-1.0)

    def test_centrifugal_sign_case_ii(self):
        # at the equator only the inverse-square piece survives:
        # -(p^2 - 1/4)/(2 R^2) = -(3/16)/2, independent of mu
        assert cou.potential(case_ii(Branch.PLUS), math.pi / 2) == pytest.approx(-0.09375)

    def test_even_in_phi(self):
        system = case_ii(Branch.PLUS)
        assert cou.potential(system, -0.8) == cou.potential(system, 0.8)

    def test_singular_points(self):
        for phi in (0.0, math.pi, -math.pi):
            with pytest.raises(SingularPointError):
                cou.potential(case_i(), phi)


class TestDuality:
    def test_zero_energy_point(self):
        form = cou.duality_parameters(case_i(), 0.0)
        assert form.epsilon == pytest.approx(2j)
        assert form.k0**2 == pytest.approx(-2j)

    def test_infinite_fields_refused(self):
        system = cou.CoulombSystem(CircleGeometry(10.0), mu=1.0, k1=1.0)
        for energy in (1e308, -1e308):
            with pytest.raises(DomainError):
                cou.duality_parameters(system, energy)

    def test_epsilon_k0_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            system = cou.CoulombSystem(
                CircleGeometry(rng.uniform(0.2, 5.0)),
                mu=rng.uniform(0.1, 4.0),
                k1=rng.uniform(0.0, 1.4),
            )
            energy = rng.uniform(-10.0, 10.0)
            form = cou.duality_parameters(system, energy)
            expected = 4j * system.mu * system.geometry.radius
            assert cmath.isclose(form.epsilon - form.k0**2, expected, rel_tol=1e-12)

    def test_k1_dictionary(self):
        assert case_i().k1**2 == pytest.approx(2.0 - 4.0 * 0.25)
        assert case_ii(Branch.PLUS).k1**2 == pytest.approx(2.0 - 4.0 * (7.0 / 16.0))


class TestQuantization:
    def test_case_i_numbers(self):
        qn = cou.quantize(case_i(), 0)
        assert (qn.nu, qn.sigma) == (1.0, 1.0)
        assert qn.k0 == complex(-1.0, 1.0)

    def test_case_ii_minus_numbers(self):
        qn = cou.quantize(case_ii(Branch.MINUS), 0)
        assert qn.nu == 0.25
        assert qn.sigma == pytest.approx(4.0)

    def test_duality_closure(self):
        for system in (case_i(), case_ii(Branch.PLUS), case_ii(Branch.MINUS),
                       case_i(mu=2.0, radius=0.5)):
            r = system.geometry.radius
            for n in range(6):
                qn = cou.quantize(system, n)
                lhs = (2 * n + system.branch.sign * system.k1 + qn.k0 + 1.0) ** 2
                rhs = (2.0 * r * r * cou.energy_level(system, n)
                       + 2j * system.mu * r)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_energy_examples(self):
        assert cou.energy_level(case_i(), 0) == pytest.approx(0.0, abs=1e-15)
        assert cou.energy_level(case_i(), 1) == pytest.approx(1.875)
        assert cou.energy_level(case_ii(Branch.MINUS), 0) == pytest.approx(-7.96875)

    def test_energy_is_real_part_of_duality_route(self):
        for system in (case_i(), case_ii(Branch.PLUS)):
            for n in range(5):
                energy = cou.energy_level(system, n)
                form = cou.duality_parameters(system, energy)
                qn = cou.quantize(system, n)
                eps_quantized = (n + qn.nu + 1j * qn.sigma) ** 2
                assert abs(form.epsilon - eps_quantized) <= 1e-12 * abs(eps_quantized)


class TestNormConstants:
    def test_sigma_form_example(self):
        # nu=1, n=0, sigma=1, R=1: exp(pi/2) |Gamma(1+i)| sqrt(2/pi) with the
        # modulus from the sinh identity
        expected = (math.exp(math.pi / 2)
                    * math.sqrt(math.pi / math.sinh(math.pi))
                    * math.sqrt(2.0 / math.pi))
        assert cou.norm_constant(case_i(), 0) == pytest.approx(expected, rel=1e-12)

    def test_sigma_form_nu_one_reduction(self):
        # the general form must collapse to exp(sigma pi/2) |Gamma(1+i sigma)|
        # sqrt(((n+1)^2 + sigma^2)/(pi R)) at nu = 1; mu = sigma (n + nu)/R gives sigma
        for n in (0, 2, 5):
            for sigma in (0.5, 1.0, 3.0):
                system = case_i(mu=sigma * (n + 1))
                assert cou.quantize(system, n).sigma == sigma
                modulus = math.sqrt(math.pi * sigma / math.sinh(math.pi * sigma))
                expected = (math.exp(sigma * math.pi / 2) * modulus
                            * math.sqrt(((n + 1) ** 2 + sigma**2) / math.pi))
                assert cou.norm_constant(system, n) == pytest.approx(expected, rel=1e-12)

    def test_positive(self):
        # nu = 0.25, 0.75, 1 at sigma = 0.7 (mu = sigma (n + nu)/R) and R = 2
        for k1, branch in ((0.5, Branch.MINUS), (0.5, Branch.PLUS), (1.0, Branch.PLUS)):
            for n in (0, 3):
                nu = 0.5 * (1.0 + branch.sign * k1)
                system = cou.CoulombSystem(CircleGeometry(2.0), 0.7 * (n + nu) / 2.0, k1, branch)
                assert cou.norm_constant(system, n) > 0.0
        # quantize's underflow: mu R/(n + nu) rounds to sigma = 0
        system = cou.CoulombSystem(CircleGeometry(0.5), 5e-324, 1.0)
        assert cou.quantize(system, 0).sigma == 0.0
        assert cou.norm_constant(system, 0) > 0.0

    def test_contour_route_modulus_case_i(self):
        # spec'd comparison grid: k1 = 1, n in 0..5, sigma in {1/2, 1, 2, 4}
        for n in range(6):
            for sigma in (0.5, 1.0, 2.0, 4.0):
                system = case_i(mu=sigma * (n + 1))
                assert cou.quantize(system, n).k0 == complex(-(n + 1.0), sigma)
                general = cou.contour_norm_constant(system, n)
                direct = cou.norm_constant(system, n)
                assert abs(general) == pytest.approx(direct, rel=1e-10)

    def test_contour_route_refuses_large_sigma(self):
        # the sigma-form constant at 60 digits is the oracle at the bound
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            for k1, branch in ((1.0, Branch.PLUS), (0.5, Branch.MINUS), (1.3, Branch.PLUS)):
                nu = 0.5 * (1.0 + branch.sign * k1)
                for n in (0, 37, 100):
                    system = cou.CoulombSystem(UNIT, 1e5 * (n + nu), k1, branch)
                    sigma = cou.quantize(system, n).sigma
                    got = abs(cou.contour_norm_constant(system, n))
                    big_n, s = mp.mpf(n + nu), mp.mpf(sigma)
                    want = (mp.exp(s * mp.pi / 2) * 2**mp.mpf(nu)
                            * abs(mp.gamma(mp.mpc(nu, s))) / mp.gamma(2 * mp.mpf(nu))
                            * mp.sqrt((big_n**2 + s**2) * mp.gamma(n + 2 * mp.mpf(nu))
                                      / (4 * mp.pi * big_n * mp.factorial(n))))
                    assert abs(got - want) <= 1e-10 * want
        for sigma in (1e10, 1e300):  # n = 0, nu = 1: mu = sigma
            with pytest.raises(DomainError, match="Im k0"):
                cou.contour_norm_constant(case_i(mu=sigma), 0)

    def test_contour_route_ground_state_hand_check(self):
        # n=0, k1=1: the gamma ratio collapses to Gamma(k0+2)/Gamma(k0+1) = k0+1,
        # so |C_0|^2 = 4 |(-i k0)(k0+2)(k0+1)| / (2 R |1 - e^(2 i pi k0)|)
        sigma = 1.3
        k0 = complex(-1.0, sigma)
        numerator = abs((-1j * k0) * (k0 + 2.0) * (k0 + 1.0))
        denominator = 2.0 * abs(1.0 - cmath.exp(2j * math.pi * k0))
        expected_sq = 4.0 * numerator / denominator
        system = case_i(mu=sigma)
        assert cou.quantize(system, 0).k0 == k0
        got = cou.contour_norm_constant(system, 0)
        assert abs(got) ** 2 == pytest.approx(expected_sq, rel=1e-12)

    def test_contour_denominator_never_vanishes(self):
        # |e^(2 i pi k0)| = e^(-2 pi sigma) < 1 for any positive sigma
        for sigma in (1e-3, 0.5, 4.0):
            k0 = complex(-2.0, sigma)
            assert abs(cmath.exp(2j * math.pi * k0)) == pytest.approx(
                math.exp(-2.0 * math.pi * sigma), rel=1e-12
            )


class TestWavefunction:
    def test_domain(self):
        for phi in (0.0, math.pi, -0.2, 4.0):
            with pytest.raises(DomainError):
                cou.wavefunction(case_i(), 0, phi)

    def test_ground_state_closed_form(self):
        system = case_ii(Branch.MINUS)
        qn = cou.quantize(system, 0)
        c = cou.norm_constant(system, 0)
        for phi in (0.3, 1.4, 2.9):
            expected = c * math.sin(phi) ** qn.nu * math.exp(-qn.sigma * phi)
            got = cou.wavefunction(system, 0, phi)
            assert got.real == pytest.approx(expected, rel=1e-12)
            assert got.imag == 0.0

    def test_real_valued_up_to_roundoff(self):
        phis = np.linspace(0.05, math.pi - 0.05, 50)
        for system in (case_i(), case_ii(Branch.PLUS), case_ii(Branch.MINUS)):
            for n in (1, 3, 5):
                values = cou.wavefunction(system, n, phis)
                scale = float(np.max(np.abs(values)))
                assert float(np.max(np.abs(values.imag))) < 1e-12 * scale

    def test_boundary_decay(self):
        # vanishing like phi^nu: fast for nu = 1, slow (quarter power) for nu = 1/4
        system = case_i()
        assert abs(cou.wavefunction(system, 1, 1e-7)) < 1e-5
        assert abs(cou.wavefunction(system, 1, math.pi - 1e-7)) < 1e-5
        system = case_ii(Branch.MINUS)
        ladder = [abs(cou.wavefunction(system, 1, phi)) for phi in (0.1, 1e-3, 1e-5, 1e-7)]
        assert all(b < a for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] < 0.05

    @pytest.mark.parametrize("system", [case_i(), case_ii(Branch.MINUS), case_i(mu=10.0)],
                             ids=["nu=1", "nu=0.25", "nu=1,muR=10"])
    def test_high_n_against_mpmath(self, system):
        for n in (40, 100):
            phis = (0.3, 1.5, 2.8)
            for phi, want in zip(phis, coulomb_state_mpmath(system, n, phis, 50)):
                got = cou.wavefunction(system, n, phi)
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    # sigma = mu R/(n + nu) with nu = 1: sigma pi > -ln(DBL_MIN), so e^(-sigma phi) leaves
    # the normal doubles on part of (0, pi); these rows returned 6.1e-6 (sigma = 400) and
    # 1.0 of the peak (zeros) before the evaluator bounded that error
    @pytest.mark.parametrize("n, sigma", [(500, 400), (500, 600), (500, 700), (1000, 400)])
    def test_underflowing_decay_refused_or_within_1e_10_of_the_peak(self, n, sigma):
        system = case_i(mu=sigma * (n + 1))
        phis = np.linspace(0.0, math.pi, 26)[1:-1]
        try:
            got = cou.wavefunction(system, n, phis)
        except DomainError as exc:
            assert "underflows" in str(exc)
            return
        want = np.array(coulomb_state_mpmath(system, n, phis, 80)).real
        peak = max(np.abs(want).max(), np.abs(got).max())  # a small got cannot relax it
        assert np.abs(got - want).max() <= 1e-10 * peak

    def test_underflowing_decay_refused_where_the_state_is_of_order_its_peak(self):
        # the state is 0.398 at phi = 1.3 (peak about 1.03) and was returned as 0.0
        system = case_i(mu=300600.0)
        with pytest.raises(DomainError, match="underflows"):
            cou.wavefunction(system, 500, 1.3)
        with pytest.raises(DomainError, match="underflows"):
            cou.extend_parity(system, 500, -1.3, Parity.EVEN)

    @pytest.mark.parametrize("mu, n", [(1e4, 0), (1e4, 10), (700.0 * 301, 300),
                                       (1000.0 * 301, 300)])
    def test_decay_below_the_normal_doubles_served(self, mu, n):
        # sigma pi > -ln(DBL_MIN) here too, but where e^(-sigma phi) underflows the state
        # is far below 1e-10 of its peak, so the values are served (accurate zeros at n = 0)
        system = case_i(mu=mu)
        phis = np.concatenate((np.geomspace(1e-5, 0.05, 12), np.linspace(0.0, math.pi, 14)[1:-1]))
        got = cou.wavefunction(system, n, phis)
        want = np.array(coulomb_state_mpmath(system, n, phis, 80)).real
        peak = max(np.abs(want).max(), np.abs(got).max())
        assert np.abs(got - want).max() <= 1e-10 * peak

    def test_returns_float64(self):
        values = cou.wavefunction(case_ii(Branch.PLUS), 3, np.linspace(0.1, 3.0, 7))
        assert values.dtype == np.float64
        assert type(cou.wavefunction(case_ii(Branch.PLUS), 3, 0.5)) is float

    def test_vectorized_matches_scalar(self):
        system = case_i()
        phis = np.linspace(0.3, 2.8, 6)
        vec = cou.wavefunction(system, 2, phis)
        for phi, value in zip(phis, vec):
            assert cou.wavefunction(system, 2, float(phi)) == value


class TestDiamond:
    def test_half_norm(self):
        for system in (case_i(), case_ii(Branch.PLUS), case_ii(Branch.MINUS)):
            for n in (0, 2, 25, 40, 100):
                assert cou.diamond_norm(system, n) == pytest.approx(0.5, abs=1e-8)

    def test_default_rule_refused_beyond_mu_r_1e3(self):
        # the norm rule holds to 2.2e-9 at mu R = 1e3 and n = 100 and is 1.2e-2
        # off at mu R = 1e4 and n = 50; a fine uniform rule still normalizes
        # the refused states
        assert cou.diamond_norm(case_i(mu=1e3), 100) == pytest.approx(0.5, abs=1e-8)
        nodes, weights = gauss_legendre_rule(4000, 20, 0.0, math.pi)
        for system, n in ((case_i(mu=3e3), 20), (case_i(mu=1e3, radius=2.0), 20),
                          (case_i(mu=1e4), 50)):
            with pytest.raises(DomainError, match="mu R"):
                cou.diamond_norm(system, n)
            psi = cou.wavefunction(system, n, nodes)
            norm = system.geometry.radius * np.dot(weights, psi * psi)
            assert norm == pytest.approx(0.5, abs=1e-10)

    def test_diagonal_evaluates_wavefunction_once(self, monkeypatch):
        calls = []
        evaluate = cou._evaluate

        def counting(*args):
            calls.append(args[1].n)
            return evaluate(*args)

        monkeypatch.setattr(cou, "_evaluate", counting)
        cou.diamond_norm(case_i(), 1)
        assert calls == [1]
        calls.clear()
        cou.diamond_norm(case_i(), 0, 2)
        assert calls == [0, 2]

    def test_off_diagonal_pairings_vanish(self):
        # the states are real, so the pairing is the L2 product: R * Gram = I/2
        nodes, weights = norm_rule(math.pi)
        for mu in (1.0, 10.0):
            for system in (case_i(mu), case_ii(Branch.MINUS, mu), case_ii(Branch.PLUS, mu)):
                psi = np.array([cou.wavefunction(system, n, nodes) for n in range(26)])
                gram = (psi * weights) @ psi.T
                assert np.max(np.abs(gram - 0.5 * np.eye(26))) < 1e-12
                for m in (1, 2, 3):
                    assert abs(cou.diamond_norm(system, 0, m)) < 1e-12


class TestParityExtension:
    def test_even_symmetry(self):
        system = case_i()
        for phi in (0.3, 1.0, 2.5):
            left = cou.extend_parity(system, 1, -phi, Parity.EVEN)
            right = cou.extend_parity(system, 1, phi, Parity.EVEN)
            assert left == right

    def test_odd_antisymmetry(self):
        system = case_i()
        for phi in (0.3, 1.0, 2.5):
            left = cou.extend_parity(system, 1, -phi, Parity.ODD)
            right = cou.extend_parity(system, 1, phi, Parity.ODD)
            assert left == -right

    def test_reduces_to_wavefunction_on_positive_side(self):
        system = case_i()
        for phi in (0.4, 2.0):
            assert cou.extend_parity(system, 2, phi, Parity.EVEN) == cou.wavefunction(
                system, 2, phi
            )
            assert cou.extend_parity(system, 2, phi, Parity.ODD) == cou.wavefunction(
                system, 2, phi
            )

    def test_odd_vanishes_at_origin(self):
        assert cou.extend_parity(case_i(), 1, 0.0, Parity.ODD) == 0.0

    def test_origin_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 1, 40):
                assert cou.extend_parity(case_i(), n, 0.0, Parity.ODD) == 0.0

    def test_parity_must_be_a_parity(self):
        with pytest.raises(DomainError, match="Parity"):
            cou.extend_parity(case_i(), 1, -0.5, "odd")

    def test_one_sided_motion_rejected(self):
        with pytest.raises(BranchError):
            cou.extend_parity(case_ii(Branch.PLUS), 0, 0.5, Parity.EVEN)

    def test_full_circle_unit_norm(self):
        # both parity eigenfunctions carry twice the half-circle norm 1/2
        # (symmetric panel layout puts a breakpoint at the |phi| kink)
        system = case_i()
        edge = math.pi - 1e-9
        nodes, weights = gauss_legendre_rule(48, 12, -edge, edge, endpoint_refinement=40)
        for parity in (Parity.EVEN, Parity.ODD):
            psi = cou.extend_parity(system, 1, nodes, parity)
            norm = float(np.real(np.dot(weights, psi * np.conj(psi))))
            assert norm == pytest.approx(1.0, abs=1e-7)

    def test_parity_pair_shares_energy(self):
        # implied full-circle double degeneracy: report, do not assert beyond
        # the constructional fact that both parities use the same level
        system = case_i()
        energy = cou.energy_level(system, 2)
        print(f"full-circle even/odd pair at n=2 shares E = {energy}")


class TestSpectrumMerge:
    def test_case_ii_merges_both_nu(self):
        system = case_ii(Branch.PLUS)
        rows = spectrum(system, 1)
        assert len(rows) == 4
        branches = {member.branch for _, member, _ in rows}
        assert branches == {Branch.PLUS, Branch.MINUS}
        energies = [e for _, _, e in rows]
        assert energies == sorted(energies)

    def test_case_i_single_family(self):
        rows = spectrum(case_i(), 2)
        assert [e for _, _, e in rows] == pytest.approx([0.0, 1.875, 4.0 + 4.0 / 9.0])
