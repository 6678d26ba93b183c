"""The closed-form wavefunctions are evaluated in place, block by block: the
Jacobi recurrence rotates three buffers, the prefactors multiply into the
buffer of sin, and ``systems.in_blocks`` runs that chain over contiguous
one-dimensional slices of at most ``systems._BLOCK`` angles, a scalar angle
being a slice of one.  Every result must equal, bit for bit, the allocating
formulas kept in ``oracles.py`` on the angles as a flat array, for arrays of
any size and shape and for scalar angles alike, and no input may be written."""

import math
import tracemalloc

import numpy as np
import pytest

from circle_sqm import Branch, CircleGeometry, specfun, systems
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.errors import DomainError
from circle_sqm.numerics import validate
from circle_sqm.systems import two_branch

from oracles import (coulomb_wavefunction_allocating, jacobi_scaled_allocating,
                     oscillator_wavefunction_allocating)

DEGREES = (0, 1, 2, 7, 18, 40)
K1S = (0.3, 0.5, 0.75, 1.0, 1.5)
FAMILIES = [(k1, branch) for k1 in K1S for branch in Branch
            if branch is Branch.PLUS or two_branch(k1)]


def angles(lo: float, hi: float, seed: int) -> tuple[np.ndarray, list[float]]:
    """1001 angles (an odd count, so vector loops end in a partial block) and 8 scalars."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, 1001), rng.uniform(lo, hi, 8).tolist()


def on_flat(allocating, *args):
    """``allocating(*args)`` with its last argument, the angles, as a flat array, and the
    values in the angles' shape: a scalar angle's reference is its one-element array's."""
    *args, phi = args
    return allocating(*args, np.reshape(phi, -1)).reshape(np.shape(phi))


def assert_same(got, want):
    """Bit-identical, and a Python float where the reference is a scalar."""
    if np.ndim(want) == 0:
        assert isinstance(got, float) and got == float(want)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", DEGREES)
def test_jacobi_scaled_matches_the_allocating_recurrence(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, 1001)
    s, c = np.sin(3.0 * x), np.cos(3.0 * x)
    big_n, sigma = n + 0.75, 1.7
    cases = [(2.6, 1.6, x, 0.3, 1.0),  # real alpha, beta: scalar d_w and w_sq
             (-2.0 * big_n, big_n**2 + sigma**2, c, 2.0 * sigma * s, -s * s),  # Romanovski
             (2.6, 1.6, 0.37, 0.3, 1.0),
             (-2.0 * big_n, big_n**2 + sigma**2, c[0], 2.0 * sigma * s[0], -s[0] * s[0])]
    for ab_sum, ab_product, x_w, d_w, w_sq in cases:
        inputs = [np.copy(v) for v in (x_w, d_w, w_sq)]
        got = specfun.jacobi_scaled(n, ab_sum, ab_product, x_w, d_w, w_sq)
        want = np.asarray(jacobi_scaled_allocating(n, ab_sum, ab_product, x_w, d_w, w_sq))
        assert got.shape == want.shape and np.array_equal(got, want)
        for before, after in zip(inputs, (x_w, d_w, w_sq)):
            assert np.array_equal(before, after)


@pytest.mark.parametrize("k1, branch", FAMILIES)
def test_oscillator_wavefunction_matches_the_allocating_formula(k1, branch):
    # omega = 0 makes the cos exponent 1/2 + k0 exactly 1
    for omega, radius in ((1.3, 0.8), (0.0, 1.0)):
        system = osc.OscillatorSystem(CircleGeometry(radius), omega=omega, k1=k1, branch=branch)
        phi, scalars = angles(*system.motion_domain, seed=int(100 * k1))
        before = phi.copy()
        a = branch.sign * k1
        for n in DEGREES:
            norm = osc._norm_constant(system, n)
            for angle in [phi] + scalars:
                want = on_flat(oscillator_wavefunction_allocating, norm, n, a, system.k0, angle)
                assert_same(osc.wavefunction(system, n, angle), want)
        assert np.array_equal(phi, before)


@pytest.mark.parametrize("k1, branch", [f for f in FAMILIES if f[0] < math.sqrt(2.0)])
def test_coulomb_wavefunction_matches_the_allocating_formula(k1, branch):
    system = cou.CoulombSystem(CircleGeometry(0.9), mu=1.3, k1=k1, branch=branch)
    phi, scalars = angles(*system.motion_domain, seed=int(100 * k1))
    full, full_scalars = angles(-math.pi, math.pi, seed=7)
    before, full_before = phi.copy(), full.copy()
    for n in DEGREES:
        qn = cou.quantize(system, n)
        norm = cou.norm_constant(system, n)
        for angle in [phi] + scalars:
            want = on_flat(coulomb_wavefunction_allocating, norm, n, qn.nu, qn.sigma, angle)
            assert_same(cou.wavefunction(system, n, angle), want)
        if system.two_sided:
            for angle in [full] + full_scalars:
                even = on_flat(coulomb_wavefunction_allocating, norm, n, qn.nu, qn.sigma,
                               np.abs(angle))
                assert_same(cou.extend_parity(system, n, angle, cou.Parity.EVEN), even)
                assert_same(cou.extend_parity(system, n, angle, cou.Parity.ODD),
                            np.sign(angle) * even)
    assert np.array_equal(phi, before) and np.array_equal(full, full_before)


@pytest.mark.parametrize("k1, branch", FAMILIES)
def test_many_small_blocks_match_the_allocating_formulas(k1, branch, monkeypatch):
    # 1001 = 15 * 64 + 41: every family and degree crosses 16 blocks and ends in a partial one
    monkeypatch.setattr(systems, "_BLOCK", 64)
    test_oscillator_wavefunction_matches_the_allocating_formula(k1, branch)
    if k1 < math.sqrt(2.0):
        test_coulomb_wavefunction_matches_the_allocating_formula(k1, branch)


@pytest.mark.parametrize("shape", [(), systems._BLOCK - 1, systems._BLOCK, systems._BLOCK + 1,
                                   2 * systems._BLOCK + 17, (3, systems._BLOCK // 2 + 1)],
                         ids=str)
def test_block_boundaries_match_the_allocating_formulas(shape):
    rng = np.random.default_rng(int(np.prod(shape)))
    oscillator = osc.OscillatorSystem(CircleGeometry(0.8), omega=1.3, k1=0.5, branch=Branch.MINUS)
    coulomb = cou.CoulombSystem(CircleGeometry(0.9), mu=1.3, k1=1.0)
    phi = rng.uniform(*oscillator.motion_domain, shape)
    positive, full = rng.uniform(0.0, math.pi, shape), rng.uniform(-math.pi, math.pi, shape)
    inputs = [v.copy() for v in (phi, positive, full)]
    for n in (2, 18):
        want = on_flat(oscillator_wavefunction_allocating, osc._norm_constant(oscillator, n), n,
                       -0.5, oscillator.k0, phi)
        assert_same(osc.wavefunction(oscillator, n, phi), want)
        qn = cou.quantize(coulomb, n)
        norm = cou.norm_constant(coulomb, n)
        want = on_flat(coulomb_wavefunction_allocating, norm, n, qn.nu, qn.sigma, positive)
        assert_same(cou.wavefunction(coulomb, n, positive), want)
        even = on_flat(coulomb_wavefunction_allocating, norm, n, qn.nu, qn.sigma, np.abs(full))
        assert_same(cou.extend_parity(coulomb, n, full, cou.Parity.EVEN), even)
        assert_same(cou.extend_parity(coulomb, n, full, cou.Parity.ODD), np.sign(full) * even)
    for before, after in zip(inputs, (phi, positive, full)):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("system, n", [
    (osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5), 11),
    (cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0), 18)], ids=["oscillator", "coulomb"])
def test_peak_memory_of_a_large_evaluation(system, n):
    # numpy reports its buffers to tracemalloc: 0.8 MB of result and about 1 MB of one
    # block's buffers, while buffers spanning all 1e5 angles would take 4.8 or 6.4 MB
    hi = system.motion_domain[1]
    phi = (np.arange(100_000) + 0.5) * (hi / 100_000)
    evaluate = systems.closed_forms(system).wavefunction
    tracemalloc.start()
    try:
        evaluate(system, n, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_peak_memory_of_a_large_odd_extension():
    # 0.8 MB of angles, 0.8 MB of result and one block's buffers, |phi| and sign(phi)
    # included (2.8 MB); |phi| over all 1e5 angles would add 0.7 MB more (3.45 MB)
    system = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)
    tracemalloc.start()
    try:
        phi = (np.arange(100_000) + 0.5) * (2.0 * math.pi / 100_000) - math.pi
        cou.extend_parity(system, 18, phi, cou.Parity.ODD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_evaluators_refuse_nan_and_accept_no_angles():
    oscillator = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5)
    coulomb = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)  # two-sided
    evaluations = (lambda phi: osc.wavefunction(oscillator, 3, phi),
                   lambda phi: cou.wavefunction(coulomb, 3, phi),
                   lambda phi: cou.extend_parity(coulomb, 3, phi, cou.Parity.ODD))
    for evaluate in evaluations:
        for phi in (math.nan, np.array([0.5, math.nan, 1.0]), np.array([math.nan])):
            with pytest.raises(DomainError, match="strictly inside"):
                evaluate(phi)
        for shape in ((0,), (2, 0)):
            assert evaluate(np.empty(shape)).shape == shape


OSC = osc.OscillatorSystem(CircleGeometry(0.8), omega=1.3, k1=0.5, branch=Branch.MINUS)
COU = cou.CoulombSystem(CircleGeometry(0.9), mu=1.3, k1=1.0)  # two-sided
# the six closed forms that finite_array_result wraps, each with an interval of its angles
ARRAY_FORMS = {
    "oscillator.potential": (lambda phi: osc.potential(OSC, phi), (0.01, 1.56)),
    "oscillator.wavefunction": (lambda phi: osc.wavefunction(OSC, 11, phi), OSC.motion_domain),
    "coulomb.potential": (lambda phi: cou.potential(COU, phi), (0.01, 3.13)),
    "coulomb.wavefunction": (lambda phi: cou.wavefunction(COU, 18, phi), COU.motion_domain),
    "coulomb.extend_parity": (lambda phi: cou.extend_parity(COU, 18, phi, cou.Parity.ODD),
                              (-math.pi, math.pi)),
    "validate.flat_limit_wavefunction": (lambda y: validate.flat_limit_wavefunction(COU, 5, y),
                                         (0.05, 24.0)),
}


@pytest.mark.parametrize("name", ARRAY_FORMS, ids=ARRAY_FORMS)
def test_a_scalar_angle_has_its_bits_in_every_array(name, monkeypatch):
    # NumPy runs 0-d work on its scalar loops, whose powers round unlike the array loops:
    # 84 of these oscillator values and 5 of its potential's differed from the array's
    # before every angle went through a one-dimensional block and tan^2 became t * t
    form, (lo, hi) = ARRAY_FORMS[name]
    phi = np.random.default_rng(3).uniform(lo, hi, 2000)
    alone = [form(angle) for angle in phi.tolist()]
    assert all(type(value) is float for value in alone)
    alone = np.array(alone)
    for shape, block in (((2000,), systems._BLOCK), ((40, 50), systems._BLOCK), ((2000,), 64)):
        monkeypatch.setattr(systems, "_BLOCK", block)  # 2000 = 31 * 64 + 16: 32 blocks
        values = form(phi.reshape(shape))
        assert values.shape == shape
        assert np.array_equal(values.reshape(-1).view(np.int64), alone.view(np.int64))


def test_evaluators_refuse_angles_that_are_not_real():
    # a complex angle used to lose its imaginary part with only a ComplexWarning (arrays)
    # or raise an untyped TypeError (scalars); both are refused as a domain error now
    oscillator = osc.OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5)
    coulomb = cou.CoulombSystem(CircleGeometry(1.0), mu=1.0, k1=1.0)  # two-sided
    evaluations = (lambda phi: osc.wavefunction(oscillator, 1, phi),
                   lambda phi: cou.wavefunction(coulomb, 1, phi),
                   lambda phi: cou.extend_parity(coulomb, 1, phi, cou.Parity.ODD))
    for evaluate in evaluations:
        for phi in (np.array([0.5 + 1j]), 0.5 + 1j, np.array([0.5 + 0j]), np.array(["0.5"])):
            with pytest.raises(DomainError, match="real"):
                evaluate(phi)
        assert np.array_equal(evaluate([0.5, 1]), evaluate(np.array([0.5, 1.0])))
