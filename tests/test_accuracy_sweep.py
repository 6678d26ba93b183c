"""Accurate or refused: both wavefunctions over a derandomized sweep of their parameters.

Each draw is a system (coupling, radius, k1 and branch), a level n <= 1000 and a few
angles, to which the angles around the state's peak on a fine grid are added.  The
package must raise DomainError, or serve values within 1e-10 of the peak of an mpmath
Gauss-series oracle, the peak being the larger of the oracle's and the package's
maximum over those angles, so a wrongly small value cannot relax the bound.  Each
angle evaluated alone must give the array's bits.  A second sweep draws the Coulomb
states where e^(-sigma phi) leaves the normal doubles, which the first seldom reaches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_sqm import Branch, CircleGeometry
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.errors import DomainError

from oracles import coulomb_state_mpmath, oscillator_state_mpmath

pytest.importorskip("mpmath")

# (k1, branch): both branches of a two-branch k1, and plus-branch k1 on either side of 1/2
FAMILIES = {
    osc.OscillatorSystem: ((0.3, Branch.MINUS), (0.5, Branch.MINUS), (0.5, Branch.PLUS),
                           (0.9, Branch.PLUS), (1.5, Branch.PLUS), (3.0, Branch.PLUS)),
    cou.CoulombSystem: ((0.1, Branch.MINUS), (0.5, Branch.MINUS), (0.0, Branch.PLUS),
                        (0.5, Branch.PLUS), (1.0, Branch.PLUS), (1.3, Branch.PLUS)),
}
# fractions of the half domain, geometric towards both ends, where concentrated states peak
_EDGE = np.geomspace(1e-9, 0.5, 1024)
FINE = np.concatenate((_EDGE, 1.0 - _EDGE[::-1]))


def make_system(kind, coupling, radius, k1, branch):
    """The oscillator at omega R^2 = ``coupling``, or the Coulomb system at mu = ``coupling``."""
    geometry = CircleGeometry(radius)
    if kind is osc.OscillatorSystem:
        return osc.OscillatorSystem(geometry, coupling / radius**2, k1, branch)
    return cou.CoulombSystem(geometry, coupling, k1, branch)


def check_draw(system, n, fractions):
    """DomainError, or values within 1e-10 of the peak at the drawn fractions of the motion
    domain and around the package's peak, each with its bits when evaluated alone."""
    oscillator = isinstance(system, osc.OscillatorSystem)
    evaluate = osc.wavefunction if oscillator else cou.wavefunction
    lo, hi = system.motion_domain
    fine = hi * FINE  # both evaluators are even in the angle where lo < 0
    try:
        peak_at = int(np.argmax(np.abs(evaluate(system, n, fine))))
        phis = np.concatenate((lo + (hi - lo) * np.array(fractions),
                               fine[max(peak_at - 1, 0):peak_at + 2]))
        got = evaluate(system, n, phis)
    except DomainError:
        return
    if oscillator:
        want = np.array(oscillator_state_mpmath(system, n, phis.tolist()))
    else:
        want = np.array(coulomb_state_mpmath(system, n, phis.tolist(), 80)).real
    peak = max(np.abs(want).max(), np.abs(got).max())
    assert np.abs(got - want).max() <= 1e-10 * peak
    alone = np.array([evaluate(system, n, phi) for phi in phis.tolist()])
    assert np.array_equal(alone.view(np.int64), got.view(np.int64))


FRACTIONS = st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=2, max_size=4)


@pytest.mark.parametrize("kind", FAMILIES, ids=["oscillator", "coulomb"])
@settings(max_examples=18)
@given(data=st.data(), log_coupling=st.floats(-2.0, 5.0), log_radius=st.floats(-1.0, 1.5),
       n=st.integers(0, 1000), fractions=FRACTIONS)
def test_each_draw_is_refused_or_within_1e_10_of_the_peak(kind, data, log_coupling,
                                                          log_radius, n, fractions):
    k1, branch = data.draw(st.sampled_from(FAMILIES[kind]))
    check_draw(make_system(kind, 10.0**log_coupling, 10.0**log_radius, k1, branch), n,
               fractions)


@settings(max_examples=24)
@given(data=st.data(), log_sigma=st.floats(math.log10(225.0), math.log10(2000.0)),
       log_radius=st.floats(-1.0, 1.5), n=st.integers(300, 1000), fractions=FRACTIONS)
def test_coulomb_draws_where_the_decay_underflows(data, log_sigma, log_radius, n, fractions):
    # sigma >= 225 (sigma pi > -ln(DBL_MIN), so e^(-sigma phi) leaves the normal doubles)
    # at n >= 300, which the draws above seldom reach: mu = 300600, n = 500 had returned
    # 0.0 where the state is 0.398
    k1, branch = data.draw(st.sampled_from(FAMILIES[cou.CoulombSystem]))
    nu, radius = 0.5 * (1.0 + branch.sign * k1), 10.0**log_radius
    mu = 10.0**log_sigma * (n + nu) / radius
    check_draw(cou.CoulombSystem(CircleGeometry(radius), mu, k1, branch), n, fractions)
