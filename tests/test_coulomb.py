"""Coulomb module: duality dictionary, quantization closure, wavefunction
reality, diamond pairing and both normalization-constant routes."""

import cmath
import math

import numpy as np
import pytest

from circle_sqm import Branch, CircleGeometry, Parity
from circle_sqm import coulomb as cou
from circle_sqm.errors import BranchError, DomainError, SingularPointError
from circle_sqm.numerics.quadrature import gauss_legendre_rule

UNIT = CircleGeometry(1.0)


def case_i(mu=1.0, radius=1.0):
    return cou.CoulombSystem(CircleGeometry(radius), mu=mu, k1=1.0, branch=Branch.PLUS)


def case_ii(branch, mu=1.0, radius=1.0):
    return cou.CoulombSystem(CircleGeometry(radius), mu=mu, k1=0.5, branch=branch)


class TestSystemInvariants:
    def test_mu_positive(self):
        with pytest.raises(ValueError):
            cou.CoulombSystem(UNIT, mu=0.0, k1=1.0)
        with pytest.raises(ValueError):
            cou.CoulombSystem(UNIT, mu=-1.0, k1=1.0)

    def test_k1_window(self):
        with pytest.raises(ValueError):
            cou.CoulombSystem(UNIT, mu=1.0, k1=math.sqrt(2.0))
        with pytest.raises(ValueError):
            cou.CoulombSystem(UNIT, mu=1.0, k1=-0.5)
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
        assert cou.norm_constant(0, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_sigma_form_nu_one_reduction(self):
        # the general form must collapse to exp(sigma pi/2) |Gamma(1+i sigma)|
        # sqrt(((n+1)^2 + sigma^2)/(pi R)) at nu = 1
        for n in (0, 2, 5):
            for sigma in (0.5, 1.0, 3.0):
                modulus = math.sqrt(math.pi * sigma / math.sinh(math.pi * sigma))
                expected = (math.exp(sigma * math.pi / 2) * modulus
                            * math.sqrt(((n + 1) ** 2 + sigma**2) / math.pi))
                assert cou.norm_constant(n, 1.0, sigma, 1.0) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_positive(self):
        for nu in (0.25, 0.75, 1.0):
            for n in (0, 3):
                assert cou.norm_constant(n, nu, 0.7, 2.0) > 0.0

    def test_contour_route_modulus_case_i(self):
        # spec'd comparison grid: k1 = 1, n in 0..5, sigma in {1/2, 1, 2, 4}
        for n in range(6):
            for sigma in (0.5, 1.0, 2.0, 4.0):
                k0 = complex(-(n + 1.0), sigma)
                general = cou.contour_norm_constant(n, k0, 1.0, 1.0, Branch.PLUS)
                direct = cou.norm_constant(n, 1.0, sigma, 1.0)
                assert abs(general) == pytest.approx(direct, rel=1e-10)

    def test_contour_route_ground_state_hand_check(self):
        # n=0, k1=1: the gamma ratio collapses to Gamma(k0+2)/Gamma(k0+1) = k0+1,
        # so |C_0|^2 = 4 |(-i k0)(k0+2)(k0+1)| / (2 R |1 - e^(2 i pi k0)|)
        sigma = 1.3
        k0 = complex(-1.0, sigma)
        numerator = abs((-1j * k0) * (k0 + 2.0) * (k0 + 1.0))
        denominator = 2.0 * abs(1.0 - cmath.exp(2j * math.pi * k0))
        expected_sq = 4.0 * numerator / denominator
        got = cou.contour_norm_constant(0, k0, 1.0, 1.0, Branch.PLUS)
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
        c = cou.norm_constant(0, qn.nu, qn.sigma, 1.0)
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

    def test_vectorized_matches_scalar(self):
        # batched numpy ufuncs may take SIMD paths one ulp off the scalar ones
        system = case_i()
        phis = np.linspace(0.3, 2.8, 6)
        vec = cou.wavefunction(system, 2, phis)
        for phi, value in zip(phis, vec):
            assert abs(cou.wavefunction(system, 2, float(phi)) - value) <= 1e-14 * abs(value)


class TestDiamond:
    def test_involution(self):
        system = case_ii(Branch.PLUS)
        phis = np.linspace(0.2, 2.9, 9)
        once = cou.diamond_conjugate(system, 2, phis)
        again = np.conj(once)
        assert np.max(np.abs(again - cou.wavefunction(system, 2, phis))) < 1e-12

    def test_pairing_is_nonnegative(self):
        system = case_i()
        phis = np.linspace(0.1, 3.0, 30)
        product = cou.wavefunction(system, 1, phis) * cou.diamond_conjugate(system, 1, phis)
        assert np.all(product.real >= 0.0)
        assert np.max(np.abs(product.imag)) < 1e-12 * np.max(product.real)

    def test_half_norm(self):
        for system in (case_i(), case_ii(Branch.PLUS), case_ii(Branch.MINUS)):
            for n in (0, 2):
                assert cou.diamond_norm(system, n) == pytest.approx(0.5, abs=1e-8)

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

    def test_off_diagonal_reported_not_asserted(self):
        # distinct-n pairings are not claimed to vanish; record what they are
        system = case_i()
        values = {m: cou.diamond_norm(system, 0, m) for m in (1, 2, 3)}
        print(f"diamond off-diagonal pairings (n=0): {values}")
        assert all(math.isfinite(v) for v in values.values())


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
        rows = cou.spectrum(system, 1)
        assert len(rows) == 4
        branches = {branch for _, branch, _ in rows}
        assert branches == {Branch.PLUS, Branch.MINUS}
        energies = [e for _, _, e in rows]
        assert energies == sorted(energies)

    def test_case_i_single_family(self):
        rows = cou.spectrum(case_i(), 2)
        assert [e for _, _, e in rows] == pytest.approx([0.0, 1.875, 4.0 + 4.0 / 9.0])
