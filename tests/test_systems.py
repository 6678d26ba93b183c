"""The branch rule both systems share: the minus branch exists exactly when
0 < |k1| <= 1/2, checked at the edges of that interval."""

import math

import numpy as np
import pytest

from circle_sqm import Branch, CircleGeometry
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.errors import BranchError

UNIT = CircleGeometry(1.0)
ABOVE_HALF = float(np.nextafter(0.5, 1.0))


def families(module, system):
    return {branch for _, branch, _ in module.spectrum(system, 2)}


def test_coulomb_k1_zero_has_plus_family_only():
    assert families(cou, cou.CoulombSystem(UNIT, mu=1.0, k1=0.0)) == {Branch.PLUS}
    with pytest.raises(BranchError):
        cou.CoulombSystem(UNIT, mu=1.0, k1=0.0, branch=Branch.MINUS)


def test_k1_one_half_has_both_families():
    oscillator = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.5, branch=Branch.MINUS)
    coulomb = cou.CoulombSystem(UNIT, mu=1.0, k1=0.5, branch=Branch.MINUS)
    assert families(osc, oscillator) == {Branch.PLUS, Branch.MINUS}
    assert families(cou, coulomb) == {Branch.PLUS, Branch.MINUS}
    assert oscillator.motion_domain == (-math.pi / 2, math.pi / 2)


def test_k1_just_above_one_half_has_plus_family_only():
    oscillator = osc.OscillatorSystem(UNIT, omega=1.0, k1=ABOVE_HALF)
    coulomb = cou.CoulombSystem(UNIT, mu=1.0, k1=ABOVE_HALF)
    assert families(osc, oscillator) == {Branch.PLUS}
    assert families(cou, coulomb) == {Branch.PLUS}
    assert oscillator.motion_domain == (0.0, math.pi / 2)
    with pytest.raises(BranchError):
        osc.OscillatorSystem(UNIT, omega=1.0, k1=ABOVE_HALF, branch=Branch.MINUS)
    with pytest.raises(BranchError):
        cou.CoulombSystem(UNIT, mu=1.0, k1=ABOVE_HALF, branch=Branch.MINUS)
