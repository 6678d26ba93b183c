"""What both systems share: geometric and branch descriptors, the closed-form contract,
the rules of every public count, real or complex scalar and array, and interval, the
dispatch and the spectrum."""

from __future__ import annotations

import cmath
import enum
import functools
import math
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import BranchError, DomainError

# Most angles that in_blocks evaluates at once (blockwise divides it by a width).  A block's
# 6 (oscillator) or 8 (Coulomb) work buffers, 0.8-1.0 MB at 16384 angles, stay in a 2 MiB
# L2: on 1e5 angles (2-core Xeon, numpy 2.4.6) 16384 was as fast as 8192 and 5-25% faster
# than 4096 or 32768, and it keeps the 1e4-angle grids in one block, which runs without
# the gathering copy.
_BLOCK = 16384
_SINGULAR_TOL = 1e-12  # both potentials refuse an angle this close to a zero of sin or cos


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


def check_shared_fields(system) -> None:
    """The rule of the fields both systems share: DomainError unless ``geometry`` is a
    CircleGeometry and ``branch`` a Branch, BranchError unless the branch is admissible at k1."""
    if not isinstance(system.geometry, CircleGeometry):
        raise DomainError(f"geometry must be a CircleGeometry, got {system.geometry!r}")
    if not isinstance(system.branch, Branch):
        raise DomainError(f"branch must be a Branch, got {system.branch!r}")
    if system.branch is Branch.MINUS and not two_branch(system.k1):
        raise BranchError(f"minus branch requires 0 < |k1| <= 1/2, got k1 = {system.k1:g}")


def real_scalar(value, name: str) -> float:
    """``value`` as a float, the rule of every public real parameter; DomainError unless it
    is a real number (complex, string and None are not) that a double can hold."""
    if isinstance(value, float) or isinstance(value, numbers.Real):  # the ABC check is slower
        try:
            return float(value)
        except OverflowError:  # an integer beyond the doubles
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def complex_scalar(value, name: str) -> complex:
    """``value`` as a complex, the rule of every public complex parameter; DomainError unless
    it is a number (string and None are not) whose two parts are finite doubles."""
    if isinstance(value, (complex, float)) or isinstance(value, numbers.Complex):
        try:
            z = complex(value)
        except OverflowError:  # an integer beyond the doubles
            pass
        else:
            if cmath.isfinite(z):
                return z
    raise DomainError(f"{name} must be a number with finite parts, got {value!r}")


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array, the rule of every public real array; DomainError unless
    they are real numbers (complex, string, object and ragged nested values are not)."""
    return _number_array(values, name, "real", "biuf")  # bool, signed, unsigned, float


def complex_array(values, name: str) -> np.ndarray:
    """``values`` as a complex128 array, the rule of every public complex array; DomainError
    unless they are numbers (string, object and ragged nested values are not)."""
    return _number_array(values, name, "complex", "biufc")


def _number_array(values, name: str, kind: str, dtype_kinds: str) -> np.ndarray:
    try:
        array = np.asarray(values)
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise DomainError(f"{name} must be {kind} numbers, got a ragged nested sequence") from None
    if array.dtype.kind not in dtype_kinds:
        raise DomainError(f"{name} must be {kind} numbers, got {array.dtype} values")
    return array.astype(np.float64 if kind == "real" else np.complex128, copy=False)


def in_blocks(evaluate, phi, lo: float, hi: float) -> np.ndarray:
    """The elementwise ``evaluate`` at the ``real_array`` angles ``phi``, in ``phi``'s shape;
    DomainError unless every angle lies strictly inside (lo, hi).  ``evaluate`` gets only
    one-dimensional slices of at most ``_BLOCK`` angles of the flat view, so that one slice's
    work buffers stay in cache and a scalar angle, a block of one, takes an array's path."""
    phi = real_array(phi, "phi")
    if phi.size and not (lo < phi.min() and phi.max() < hi):  # NaN fails both
        raise DomainError(f"phi must lie strictly inside ({lo:g}, {hi:g})")
    return blockwise(evaluate, phi, 1)


def blockwise(evaluate, values: np.ndarray, width: int) -> np.ndarray:
    """The elementwise ``evaluate`` at ``values``, in their shape and dtype.  ``evaluate`` gets
    only one-dimensional slices of at most max(1, ``_BLOCK // width``) values of the flat
    view, ``width`` being the rows of work values it holds per value, so that one slice's
    buffers stay in cache and a 0-d value, a block of one, takes an array's path."""
    flat, size = values.reshape(-1), max(1, _BLOCK // width)
    if flat.size <= size:  # one block, returned without the gathering copy
        return evaluate(flat).reshape(values.shape)
    out = np.empty(flat.size, values.dtype)
    for start in range(0, flat.size, size):
        out[start:start + size] = evaluate(flat[start:start + size])
    return out.reshape(values.shape)


def finite_result(formula):
    """Make a closed form return finite doubles, a Python float when 0-d; overflow,
    division by zero or any inf/nan value raises DomainError instead."""

    @functools.wraps(formula)
    def checked(*args):
        try:
            value = formula(*args)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        array = isinstance(value, np.ndarray) and value.ndim > 0
        value = value if array else float(value)
        if not (np.isfinite(value).all() if array else math.isfinite(value)):
            raise DomainError(f"{formula.__name__} is not a finite double for these parameters")
        return value

    return checked


def finite_array_result(formula):
    """``finite_result`` for a closed form on arrays, run with NumPy's warnings off so that an
    overflow or a NaN (sin of an infinite angle) surfaces as its DomainError.  Scalar forms
    keep plain ``finite_result``: ``np.errstate`` costs about 1 us a call, and a spectrum
    makes up to a few hundred of them."""
    return finite_result(np.errstate(all="ignore")(formula))


def level_index(n, least: int = 0, name: str = "level index") -> int:
    """``n`` as an int, the one rule of every public level index, degree and count;
    DomainError unless it is an integer >= ``least`` (a float, even 2.0, is not)."""
    try:
        index = operator.index(n)
    except TypeError:
        index = None
    if index is None or index < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
    return index


def interval(a, b, name: str) -> tuple[float, float]:
    """(a, b) as floats, the rule of every public interval; DomainError unless finite a < b."""
    a, b = real_scalar(a, name), real_scalar(b, name)
    if not (math.isfinite(a) and a < b < math.inf):  # NaN fails too
        raise DomainError(f"{name} must have finite ends a < b, got ({a!r}, {b!r})")
    return a, b


def half_offset_grid(domain, count, least: int, name: str) -> tuple[np.ndarray, float]:
    """``count`` >= ``least`` nodes a + (i + 1/2) h of the ``interval`` domain (a, b), and h."""
    try:
        a, b = domain
    except (TypeError, ValueError):  # not iterable, or not two ends
        raise DomainError(f"domain must be a pair (a, b), got {domain!r}") from None
    a, b = interval(a, b, "domain")
    count = level_index(count, least, name)
    h = (b - a) / count
    return a + (np.arange(count) + 0.5) * h, h


def closed_forms(system):
    """The module of closed forms that serves ``system``: the one dispatch on system type."""
    from . import coulomb, oscillator

    if isinstance(system, oscillator.OscillatorSystem):
        return oscillator
    if isinstance(system, coulomb.CoulombSystem):
        return coulomb
    raise DomainError(f"not an oscillator or Coulomb system: {system!r}")


def spectrum(system, n_max: int) -> list[tuple[int, object, float]]:
    """Levels n = 0..n_max of every admissible branch of ``system``, sorted by energy.

    Rows are (n, member, energy), where member is ``system`` with its branch
    replaced by the row's branch and energy is the ``energy_level`` of its
    closed forms; ties in energy are broken by branch name, then n.
    """
    n_max = level_index(n_max)
    energy_level = closed_forms(system).energy_level
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
        object.__setattr__(self, "radius", real_scalar(self.radius, "radius"))  # frozen
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be finite and > 0, got {self.radius!r}")


@dataclass(frozen=True)
class PoschlTellerForm:
    """Reduced-equation triple (epsilon, k0, k1).

    Both systems meet in the equation
    ``psi'' + [epsilon - (k0^2 - 1/4)/cos^2 - (k1^2 - 1/4)/sin^2] psi = 0``.
    For the oscillator ``epsilon`` and ``k0`` are real with k0 >= 1/2; the
    Coulomb duality route produces complex values.  Both must pass
    ``complex_scalar`` and are kept as given; ``k1`` is stored as a finite
    ``real_scalar``.
    """

    epsilon: complex | float
    k0: complex | float
    k1: float

    def __post_init__(self) -> None:
        complex_scalar(self.epsilon, "epsilon")
        complex_scalar(self.k0, "k0")
        object.__setattr__(self, "k1", real_scalar(self.k1, "k1"))  # frozen
        if not math.isfinite(self.k1):
            raise DomainError(f"k1 must be finite, got {self.k1!r}")
