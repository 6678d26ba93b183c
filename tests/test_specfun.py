"""Special-function layer: spot values, identities, and the exact-rational oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from circle_sqm import specfun
from circle_sqm.errors import DegenerateDenominatorError, DomainError, PoleError
from circle_sqm.numerics import validate

from oracles import hyp1f1_exact, hyp2f1_exact, qc, terminating_sum_allocating

# frozen with mpmath.gamma(0.25) at 40 digits
GAMMA_QUARTER = 3.6256099082219083


class TestLnGamma:
    def test_at_one(self):
        assert abs(specfun.ln_gamma_complex(1.0)) < 1e-14

    def test_at_five_is_ln_24(self):
        assert specfun.ln_gamma_complex(5.0).real == pytest.approx(math.log(24.0), rel=1e-13)
        assert specfun.ln_gamma_complex(5.0).imag == 0.0

    def test_modulus_at_one_plus_i(self):
        # |Gamma(1 + i s)|^2 = pi s / sinh(pi s), evaluated independently
        expected = math.sqrt(math.pi / math.sinh(math.pi))
        got = abs(np.exp(specfun.ln_gamma_complex(1 + 1j)))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_exp_matches_real_gamma(self):
        for x in (0.25, 0.5, 1.5, 3.0, 7.25, 11.0):
            assert math.exp(specfun.ln_gamma_complex(x).real) == pytest.approx(
                math.gamma(x), rel=1e-12
            )

    def test_poles(self):
        for z in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(PoleError):
                specfun.ln_gamma_complex(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            specfun.ln_gamma_complex(complex(math.inf, 0.0))
        with pytest.raises(DomainError):
            specfun.ln_gamma_complex(complex(0.0, math.nan))

    def test_recurrence_on_complex_grid(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1:
                continue
            ratio = np.exp(specfun.ln_gamma_complex(z + 1) - specfun.ln_gamma_complex(z))
            assert abs(ratio / z - 1.0) < 1e-12
            checked += 1

    def test_against_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 150:
            z = complex(rng.uniform(-15, 25), rng.uniform(-25, 25))
            if abs(z.imag) < 0.1 and z.real < 0.6:
                continue
            mine = specfun.ln_gamma_complex(z)
            reference = mp.loggamma(mp.mpc(z.real, z.imag))
            # branch-insensitive comparison: relative error of Gamma itself
            gamma_rel = abs(mp.e ** (mp.mpc(mine.real, mine.imag) - reference) - 1)
            assert float(gamma_rel) < 5e-13
            checked += 1


class TestGammaAbs:
    def test_at_one(self):
        assert specfun.gamma_abs(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_at_one_plus_two_i(self):
        # |Gamma(1 + 2i)| = sqrt(2 pi / sinh(2 pi)) by the same identity
        expected = math.sqrt(2.0 * math.pi / math.sinh(2.0 * math.pi))
        assert specfun.gamma_abs(1 + 2j) == pytest.approx(expected, rel=1e-13)

    def test_at_one_quarter(self):
        assert specfun.gamma_abs(0.25) == pytest.approx(GAMMA_QUARTER, rel=1e-13)
        assert specfun.gamma_abs(0.25) == pytest.approx(math.gamma(0.25), rel=1e-13)

    def test_identity_over_sigma_range(self):
        for sigma in np.logspace(-3, 1, 100):
            product = (
                specfun.gamma_abs(complex(1.0, sigma)) ** 2
                * math.sinh(math.pi * sigma)
                / (math.pi * sigma)
            )
            assert abs(product - 1.0) < 1e-12


class TestHyp2F1Terminating:
    def test_degree_zero(self):
        assert specfun.hyp2f1_terminating(0, 3.7 + 1j, -0.2 + 2j, 0.9) == 1.0

    def test_one_term(self):
        assert complex(specfun.hyp2f1_terminating(1, 2.0, 4.0, 0.5)) == pytest.approx(0.75)

    def test_binomial_collapse(self):
        got = complex(specfun.hyp2f1_terminating(3, 1.9, 1.9, 0.25))
        assert got == pytest.approx(0.75**3, rel=1e-13)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominatorError):
            specfun.hyp2f1_terminating(5, 1.0, -2.0, 0.3)
        # c = -n is outside the sum's reach and must be accepted
        specfun.hyp2f1_terminating(5, 1.0, -5.0, 0.3)

    def test_against_rational_oracle(self):
        # draws stay inside the unit disc with |components| <= 3/8: close to
        # the boundary the series itself is ill-conditioned in doubles (terms
        # up to C(n, n/2) against O(1) sums), which no summation order fixes
        rng = np.random.default_rng(42)
        for n in range(0, 31):
            b = qc(int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            b = qc(b.re / 16, b.im / 16)
            c = qc(int(rng.integers(10, 30)), int(rng.integers(-6, 7)))
            c = qc(c.re / 8, c.im / 16)
            x = qc(int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            x = qc(x.re / 16, x.im / 16)
            exact = hyp2f1_exact(n, b, c, x)
            got = complex(
                specfun.hyp2f1_terminating(n, b.to_complex(), c.to_complex(), x.to_complex())
            )
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1.0)

    def test_vectorized_matches_scalar(self):
        # batched numpy ufuncs may take SIMD paths one ulp off the scalar ones
        xs = np.linspace(-0.8, 0.8, 7) + 0.1j
        vec = specfun.hyp2f1_terminating(4, 1.3 - 0.2j, 2.5, xs)
        for x, v in zip(xs, vec):
            scalar = complex(specfun.hyp2f1_terminating(4, 1.3 - 0.2j, 2.5, complex(x)))
            assert abs(scalar - v) <= 1e-14 * abs(v)


class TestHyp1F1Terminating:
    def test_degree_zero(self):
        assert specfun.hyp1f1_terminating(0, 0.5, 2.0) == 1.0

    def test_one_term(self):
        assert complex(specfun.hyp1f1_terminating(1, 0.5, 1.0)) == pytest.approx(-1.0)

    def test_two_terms(self):
        # exact rational evaluation: 1 - 3 + 3/2 = -1/2
        assert complex(specfun.hyp1f1_terminating(2, 2.0, 3.0)) == pytest.approx(-0.5)
        assert hyp1f1_exact(2, qc(2), qc(3)) == pytest.approx(-0.5)

    def test_against_rational_oracle(self):
        rng = np.random.default_rng(43)
        for n in range(0, 31, 2):
            c = qc(int(rng.integers(10, 40)), int(rng.integers(-8, 9)))
            c = qc(c.re / 8, c.im / 16)
            y = qc(int(rng.integers(-12, 13)), int(rng.integers(-12, 13)))
            y = qc(y.re / 8, y.im / 8)
            exact = hyp1f1_exact(n, c, y)
            got = complex(specfun.hyp1f1_terminating(n, c.to_complex(), y.to_complex()))
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1.0)


class TestScalarSummation:
    def test_scalar_sums_match_the_0d_array_reference_bit_for_bit(self):
        # NumPy's complex multiply and abs differ from Python complex arithmetic in
        # the last bit, so repr (which tells -0.0 from 0.0) must agree on every draw
        draws = 10_000
        rng = np.random.default_rng(2020)
        degrees = rng.integers(0, 41, size=draws)
        parts = rng.uniform(-4.0, 4.0, size=(draws, 4))
        xs = rng.uniform(-1.5, 1.5, size=(draws, 2))
        for i in range(draws):
            n = int(degrees[i])
            b, c = complex(parts[i, 0], parts[i, 1]), complex(parts[i, 2], parts[i, 3])
            x = complex(xs[i, 0], (xs[i, 1], 0.0, -0.0, -0.0)[i // 2 % 4])
            if i // 2 % 4 == 3:  # every argument on the real axis, from below
                b, c = complex(b.real, -0.0), complex(c.real, -0.0)
            if i % 2:  # odd draws sum the Kummer series, even ones the Gauss series
                factor, got = (lambda j: (-n + j) / ((c + j) * (j + 1)),
                               specfun.hyp1f1_terminating(n, c, x))
            else:
                factor, got = (lambda j: (-n + j) * (b + j) / ((c + j) * (j + 1)),
                               specfun.hyp2f1_terminating(n, b, c, x))
            assert repr(got) == repr(terminating_sum_allocating(n, factor, x)), (i, n, b, c, x)


    def test_integer_oracle_matches_fraction_arithmetic(self, monkeypatch):
        drawn, integer_oracle = [], validate._hyp2f1_rational
        monkeypatch.setattr(validate, "_hyp2f1_rational",
                            lambda *args: drawn.append(args) or integer_oracle(*args))
        validate.specfun_reports()
        assert len(drawn) == 44  # the suite's draws: 4 per degree 0, 3, ..., 30
        cases = (drawn + [(0, b, c, x) for _, b, c, x in drawn]
                 + [(n, b, c, (0, 0)) for n, b, c, _ in drawn])
        for n, b, c, x in cases:
            exact = hyp2f1_exact(n, *(qc(Fraction(re, 16), Fraction(im, 16))
                                      for re, im in (b, c, x)))
            assert repr(integer_oracle(n, b, c, x)) == repr(exact), (n, b, c, x)


class TestJacobiScaled:
    def test_degree_zero_and_one(self):
        xs = np.array([-0.5, 0.0, 0.75])
        assert np.array_equal(specfun.jacobi_scaled(0, 1.7, 0.6, xs, -0.7, 1.0), np.ones(3))
        # P_1^(a, b)(x) = (a - b)/2 + (a + b + 2) x/2 with a = 0.5, b = 1.2
        expected = -0.35 + 1.85 * xs
        assert np.allclose(specfun.jacobi_scaled(1, 1.7, 0.6, xs, -0.7, 1.0), expected,
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_result_takes_the_shape_of_x_w(self, n):
        xs = np.array([0.1, 0.2, 0.3])
        assert specfun.jacobi_scaled(n, 1.0, 0.2, xs, 0.3, 1.0).shape == (3,)
        assert specfun.jacobi_scaled(n, 1.0, 0.2, xs, xs[:1], xs).shape == (3,)
        assert specfun.jacobi_scaled(n, 1.0, 0.2, 0.4, 0.3, 1.0).shape == ()
        assert specfun.jacobi_scaled(n, 1.0, 0.2, xs[:, None] * xs, xs, 1.0).shape == (3, 3)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_coefficients_that_do_not_broadcast_to_x_w_are_refused(self, n):
        xs = np.array([0.1, 0.2, 0.3])
        with pytest.raises(DomainError, match="shape"):
            specfun.jacobi_scaled(n, 1.0, 0.2, 1.0, 0.3, xs)  # would widen a scalar x_w
        with pytest.raises(DomainError, match="shape"):
            specfun.jacobi_scaled(n, 1.0, 0.2, xs, np.ones(2), 1.0)  # does not broadcast
        with pytest.raises(DomainError, match="shape"):
            specfun.jacobi_scaled(n, 1.0, 0.2, xs, 0.3, xs[:, None])

    @pytest.mark.parametrize("a,b", [(0.3, 1.2), (-0.5, 0.5), (1.5, math.sqrt(1.25)),
                                     (-0.3, 10.0)])
    def test_real_parameters_against_mpmath(self, a, b):
        mp = pytest.importorskip("mpmath")
        xs = np.linspace(-0.95, 0.95, 9)
        with mp.workdps(50):
            for n in (2, 7, 40):
                got = specfun.jacobi_scaled(n, a + b, a * b, xs, a - b, 1.0)
                for x, value in zip(xs, got):
                    want = float(mp.jacobi(n, a, b, x))
                    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))

    def test_conjugate_parameters_against_mpmath(self):
        # (-i sin phi)^n P_n^(-N + i s, -N - i s)(i cot phi) is real; the
        # recurrence returns it from cos, sin and real coefficients only
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for n, nu, sigma in ((3, 0.25, 0.4), (12, 1.0, 2.5), (40, 0.75, 0.1)):
                big_n = n + nu
                for phi in (0.2, 1.6, 3.0):
                    s, c = math.sin(phi), math.cos(phi)
                    got = specfun.jacobi_scaled(n, -2.0 * big_n, big_n**2 + sigma**2, c,
                                                2.0 * sigma * s, -s * s)
                    want = complex((-1j * mp.sin(phi)) ** n * mp.jacobi(
                        n, mp.mpc(-big_n, sigma), mp.mpc(-big_n, -sigma), 1j * mp.cot(phi)))
                    assert abs(want.imag) <= 1e-30
                    assert abs(got - want.real) <= 1e-12 * max(1.0, abs(want.real))
