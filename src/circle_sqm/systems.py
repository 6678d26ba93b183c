"""Shared geometric and branch descriptors."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

from .errors import BranchError, DomainError


class Branch(enum.Enum):
    """Sign choice for the singular-term exponent.

    PLUS is always admissible.  MINUS is admissible only for 0 < |k1| <= 1/2,
    where the extra inverse-square term is attractive at the origin and both
    solution families are physical.
    """

    PLUS = "plus"
    MINUS = "minus"

    @property
    def sign(self) -> int:
        return 1 if self is Branch.PLUS else -1


def two_branch(k1: float) -> bool:
    """The branch rule of both systems: MINUS is admissible iff 0 < |k1| <= 1/2."""
    return 0.0 < abs(k1) <= 0.5


def check_branch_admissible(branch: Branch, k1: float) -> None:
    """Raise BranchError unless (branch, k1) is an admissible combination."""
    if branch is Branch.MINUS and not two_branch(k1):
        raise BranchError(
            f"minus branch requires 0 < |k1| <= 1/2, got k1 = {k1:g}"
        )


def finite_result(formula):
    """Make a scalar formula raise DomainError on overflow, division by zero or inf/nan."""

    @functools.wraps(formula)
    def checked(*args):
        try:
            value = formula(*args)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"{formula.__name__} is not a finite double for these parameters")
        return value

    return checked


def merged_levels(system, n_max: int, energy_level) -> list[tuple[int, object, float]]:
    """Levels n = 0..n_max of every admissible branch of ``system``, sorted by energy.

    ``system`` is a frozen dataclass with ``k1`` and ``branch`` fields and
    ``energy_level(member, n)`` gives its levels.  Rows are (n, member,
    energy), where member is ``system`` with its branch replaced by the
    row's branch; ties in energy are broken by branch name, then n.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    branches = (Branch.PLUS, Branch.MINUS) if two_branch(system.k1) else (Branch.PLUS,)
    rows = []
    for branch in branches:
        member = replace(system, branch=branch)
        rows.extend((n, member, energy_level(member, n)) for n in range(n_max + 1))
    rows.sort(key=lambda row: (row[2], row[1].branch.value, row[0]))
    return rows


@dataclass(frozen=True)
class CircleGeometry:
    """The circle s0^2 + s1^2 = radius^2; radius is the single geometric knob."""

    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be finite and > 0, got {self.radius!r}")


@dataclass(frozen=True)
class PoschlTellerForm:
    """Reduced-equation triple (epsilon, k0, k1).

    Both systems meet in the equation
    ``psi'' + [epsilon - (k0^2 - 1/4)/cos^2 - (k1^2 - 1/4)/sin^2] psi = 0``.
    For the oscillator ``epsilon`` and ``k0`` are real with k0 >= 1/2; the
    Coulomb duality route produces complex values.
    """

    epsilon: complex | float
    k0: complex | float
    k1: float
