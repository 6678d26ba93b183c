"""Oscillator module: closed-form values, route equivalence, wavefunction
properties against quadrature and Sturm-oscillation oracles."""

import math

import numpy as np
import pytest

from circle_sqm import Branch, CircleGeometry
from circle_sqm import oscillator as osc
from circle_sqm.errors import BranchError, DomainError, SingularPointError
from circle_sqm.numerics.quadrature import norm_rule
from circle_sqm.systems import spectrum

from oracles import oscillator_state_mpmath

UNIT = CircleGeometry(1.0)
SQRT5_HALF = math.sqrt(5.0) / 2.0


class TestSystemInvariants:
    def test_radius_positive(self):
        with pytest.raises(DomainError):
            CircleGeometry(0.0)
        with pytest.raises(DomainError):
            CircleGeometry(-2.0)

    def test_omega_nonnegative(self):
        with pytest.raises(DomainError):
            osc.OscillatorSystem(UNIT, omega=-1.0, k1=1.0)

    def test_k1_positive(self):
        with pytest.raises(DomainError):
            osc.OscillatorSystem(UNIT, omega=1.0, k1=0.0)

    def test_minus_branch_rule(self):
        with pytest.raises(BranchError):
            osc.OscillatorSystem(UNIT, omega=1.0, k1=0.75, branch=Branch.MINUS)
        osc.OscillatorSystem(UNIT, omega=1.0, k1=0.5, branch=Branch.MINUS)

    def test_motion_domain(self):
        assert osc.OscillatorSystem(UNIT, 1.0, 1.5).motion_domain == (0.0, math.pi / 2)
        assert osc.OscillatorSystem(UNIT, 1.0, 0.5).motion_domain == (
            -math.pi / 2,
            math.pi / 2,
        )


class TestPotential:
    def test_vanishing_singular_term(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.5)
        assert osc.potential(system, math.pi / 4) == pytest.approx(0.5)

    def test_pure_singular_term(self):
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=1.0)
        assert osc.potential(system, math.pi / 4) == pytest.approx(0.75)
        # the 1/sin^2 piece grows monotonically toward phi = 0
        assert osc.potential(system, 0.2) > osc.potential(system, math.pi / 4)

    def test_hand_evaluated_point(self):
        system = osc.OscillatorSystem(CircleGeometry(3.0), omega=2.0, k1=1.0)
        assert osc.potential(system, math.pi / 6) == pytest.approx(6.0 + 1.0 / 6.0, rel=1e-12)

    def test_singular_points(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.0)
        for phi in (0.0, math.pi / 2, -math.pi / 2, math.pi):
            with pytest.raises(SingularPointError):
                osc.potential(system, phi)


class TestReducedForm:
    def test_free_case(self):
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=1.0)
        form = osc.reduce_to_poschl_teller(system, 2.0)
        assert form.epsilon == pytest.approx(4.0)
        assert form.k0 == pytest.approx(0.5)

    def test_unit_case(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.0)
        form = osc.reduce_to_poschl_teller(system, 0.0)
        assert form.epsilon == pytest.approx(1.0)
        assert form.k0 == pytest.approx(SQRT5_HALF, rel=1e-12)

    def test_round_trip(self):
        system = osc.OscillatorSystem(CircleGeometry(2.5), omega=1.7, k1=0.9)
        for energy in (-3.0, 0.0, 11.25):
            form = osc.reduce_to_poschl_teller(system, energy)
            assert osc.energy_from_reduced(system, form.epsilon) == pytest.approx(
                energy, abs=1e-12
            )

    def test_infinite_epsilon_refused(self):
        system = osc.OscillatorSystem(CircleGeometry(10.0), omega=1.0, k1=1.5)
        with pytest.raises(DomainError):
            osc.reduce_to_poschl_teller(system, 1e308)


class TestEnergies:
    def test_reduced_eigenvalue_examples(self):
        # omega = 0 gives k0 = 1/2; omega = R = 1 gives k0 = sqrt(5)/2
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=1.0)
        assert osc.reduced_eigenvalue(system, 0) == pytest.approx(6.25)
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.25, branch=Branch.MINUS)
        got = osc.reduced_eigenvalue(system, 2)
        assert got == pytest.approx((4.75 + SQRT5_HALF) ** 2, rel=1e-13)
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=0.5, branch=Branch.MINUS)
        assert osc.reduced_eigenvalue(system, 1) == pytest.approx(9.0)
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=0.5, branch=Branch.PLUS)
        assert osc.reduced_eigenvalue(system, 1) == pytest.approx(16.0)

    def test_energy_level_examples(self):
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=1.0)
        assert osc.energy_level(system, 0) == pytest.approx(3.125)
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.0)
        expected = 0.5 * (2.25 + (math.sqrt(5.0) + 1.0) * 2.0)
        assert osc.energy_level(system, 0) == pytest.approx(expected, rel=1e-13)

    def test_spectrum_increasing_in_n(self):
        system = osc.OscillatorSystem(CircleGeometry(0.7), omega=2.0, k1=1.3)
        levels = [osc.energy_level(system, n) for n in range(12)]
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_route_equivalence_sample(self):
        rng = np.random.default_rng(314)
        for _ in range(2000):
            omega = rng.uniform(0.0, 5.0)
            radius = rng.uniform(0.1, 10.0)
            k1 = rng.uniform(1e-3, 5.0)
            branch = Branch.MINUS if (k1 <= 0.5 and rng.random() < 0.5) else Branch.PLUS
            n = int(rng.integers(0, 21))
            system = osc.OscillatorSystem(CircleGeometry(radius), omega, k1, branch)
            direct = osc.energy_level(system, n)
            via_reduced = osc.energy_from_reduced(system, osc.reduced_eigenvalue(system, n))
            assert abs(direct - via_reduced) <= 1e-12 * abs(direct)


class TestSpectrum:
    def test_two_branch_merge(self):
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=0.5)
        rows = spectrum(system, 1)
        assert len(rows) == 4
        energies = [energy for _, _, energy in rows]
        assert energies == sorted(energies)
        for n, row_member, energy in rows:
            member = osc.OscillatorSystem(UNIT, 0.0, 0.5, row_member.branch)
            assert energy == osc.energy_level(member, n)

    def test_single_branch_above_half(self):
        system = osc.OscillatorSystem(UNIT, omega=0.0, k1=0.75)
        rows = spectrum(system, 3)
        assert all(member.branch is Branch.PLUS for _, member, _ in rows)

    def test_merged_strictly_increasing_on_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            system = osc.OscillatorSystem(
                CircleGeometry(rng.uniform(0.5, 3.0)),
                omega=rng.uniform(0.0, 3.0),
                k1=rng.uniform(0.05, 0.5),
            )
            energies = [e for _, _, e in spectrum(system, 6)]
            assert all(b > a for a, b in zip(energies, energies[1:]))


class TestWavefunction:
    def test_domain_is_hard(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5)
        for phi in (0.0, math.pi / 2, -0.3, 2.0):
            with pytest.raises(DomainError):
                osc.wavefunction(system, 0, phi)

    def test_vanishes_at_both_ends(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5)
        assert abs(osc.wavefunction(system, 2, 1e-6)) < 1e-9
        assert abs(osc.wavefunction(system, 2, math.pi / 2 - 1e-6)) < 1e-8

    def test_ground_state_positive(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.5, branch=Branch.MINUS)
        phis = np.linspace(0.05, math.pi / 2 - 0.05, 40)
        assert np.all(osc.wavefunction(system, 0, phis) > 0.0)

    @pytest.mark.parametrize(
        "k1,branch",
        [(1.5, Branch.PLUS), (0.5, Branch.PLUS), (0.5, Branch.MINUS),
         (0.3, Branch.MINUS), (2.7, Branch.PLUS)],
    )
    def test_unit_norm(self, k1, branch):
        nodes, weights = norm_rule(math.pi / 2)
        for omega in (0.0, 1.0, 10.0):
            system = osc.OscillatorSystem(UNIT, omega=omega, k1=k1, branch=branch)
            psi = np.array([osc.wavefunction(system, n, nodes) for n in range(26)])
            gram = (psi * weights) @ psi.T  # orthonormal within one branch family
            assert np.max(np.abs(gram - np.eye(26))) < 1e-12
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=k1, branch=branch)
        for n in (40, 100):
            psi = osc.wavefunction(system, n, nodes)
            assert float(np.dot(weights, psi * psi)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k1,branch", [(1.5, Branch.PLUS), (0.75, Branch.PLUS),
                                           (0.5, Branch.PLUS), (0.5, Branch.MINUS),
                                           (0.3, Branch.MINUS)])
    def test_l2_norm_of_the_norms_suite_families(self, k1, branch):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=k1, branch=branch)
        for n in range(5):
            assert osc.l2_norm(system, n) == pytest.approx(1.0, abs=1e-8)

    def test_norm_carries_radius_measure(self):
        system = osc.OscillatorSystem(CircleGeometry(2.0), omega=1.0, k1=1.0)
        nodes, weights = norm_rule(math.pi / 2)
        psi = osc.wavefunction(system, 1, nodes)
        assert 2.0 * float(np.dot(weights, psi * psi)) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.3, branch=Branch.MINUS)
        nodes, weights = norm_rule(math.pi / 2)
        for n, m in ((0, 1), (0, 3), (2, 5)):
            overlap = np.dot(
                weights, osc.wavefunction(system, n, nodes) * osc.wavefunction(system, m, nodes)
            )
            assert abs(overlap) < 1e-8

    def test_node_counts(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5)
        grid = np.linspace(1e-3, math.pi / 2 - 1e-3, 4000)
        for n in (0, 1, 2, 5, 8):
            signs = np.sign(osc.wavefunction(system, n, grid))
            assert int(np.sum(np.diff(signs) != 0)) == n

    def test_mirror_extension_two_branch(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.5, branch=Branch.MINUS)
        assert osc.wavefunction(system, 1, -0.7) == osc.wavefunction(system, 1, 0.7)

    def test_vectorized_matches_scalar(self):
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5)
        phis = np.linspace(0.2, 1.2, 5)
        vec = osc.wavefunction(system, 3, phis)
        for phi, value in zip(phis, vec):
            assert osc.wavefunction(system, 3, float(phi)) == value

    @pytest.mark.parametrize("omega,k1,branch", [
        (1.0, 1.5, Branch.PLUS), (1.0, 0.3, Branch.MINUS), (10.0, 0.5, Branch.PLUS)])
    def test_high_n_against_mpmath(self, omega, k1, branch):
        # the Gauss-series closed form in mpmath, not the Jacobi recurrence
        system = osc.OscillatorSystem(UNIT, omega=omega, k1=k1, branch=branch)
        phis = (0.1, 0.7, 1.3)
        for n in (40, 100):
            for phi, want in zip(phis, oscillator_state_mpmath(system, n, phis)):
                got = osc.wavefunction(system, n, phi)
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_large_n_prefactor_stays_finite(self):
        # naive gamma products overflow doubles near n ~ 170; the log-space
        # assembly must not
        system = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5)
        value = osc.wavefunction(system, 200, 0.2)
        assert math.isfinite(value)
        assert value != 0.0
