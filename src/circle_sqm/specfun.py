"""Special-function kernel: complex log-gamma, |Gamma|, terminating
hypergeometric sums and the Jacobi three-term recurrence.

Everything downstream (wavefunctions, normalization constants, the flat-space
limit) is assembled from these primitives, so the conventions are pinned here
once:

* ``ln_gamma_complex`` uses a Lanczos approximation on ``Re z >= 1/2`` and the
  reflection formula below that line.  On the Lanczos half-plane the result is
  the principal (real-on-positive-axis) branch; on the reflected half-plane
  the imaginary part may differ from the analytic continuation by a multiple
  of ``2*pi`` (``exp`` of the result is unaffected, and only ``exp`` and the
  real part, on the real axis ``ln_gamma_real``, are consumed by this package).
  One Lanczos sum serves both: ``ln_gamma_real`` runs it on a float, so it is
  the real part of the complex path's own operations.
* Terminating hypergeometric series are summed by forward term recurrence
  with compensated (Neumaier) accumulation; no gamma-ratio prefactors are
  formed, so negative-integer upper parameters are handled exactly.  One
  vectorized body serves a scalar and an array argument alike, holding the
  n + 1 terms of a block of at most ``systems._BLOCK // (n + 2)`` points at
  once (:func:`_terminating_sum`).
* Both wavefunctions are Jacobi polynomials, evaluated by the forward
  three-term recurrence in real arithmetic (:func:`jacobi_scaled`).
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import DegenerateDenominatorError, DomainError, PoleError
from .systems import (blockwise, complex_array, complex_scalar, finite_result, level_index,
                      real_array, real_scalar)

# Lanczos parameters (g = 7, 9 terms): the classic double-precision set.  It
# keeps the relative error of Gamma below ~1e-13 on Re z >= 1/2, which the
# test suite measures against an arbitrary-precision oracle.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _lanczos_ln_gamma(z: complex | float) -> complex:
    # valid for Re z >= 0.5; a float z runs the real parts of a complex z's operations
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _LANCZOS_COEFFS
    series = (c0 + c1 / z + c2 / (z + 1) + c3 / (z + 2) + c4 / (z + 3) + c5 / (z + 4)
              + c6 / (z + 5) + c7 / (z + 6) + c8 / (z + 7))  # summed left to right
    t = z + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(series)


def _ln_sin_pi(z: complex) -> complex:
    # log(sin(pi z)) without overflow for large |Im z|:
    # sin(pi z) = exp(-i pi z) (1 - exp(2 i pi z)) * (i/2)  for Im z >= 0.
    if z.imag < 0.0:
        return _ln_sin_pi(z.conjugate()).conjugate()
    return (
        -1j * cmath.pi * z
        + cmath.log(1.0 - cmath.exp(2j * cmath.pi * z))
        - math.log(2.0)
        + 0.5j * cmath.pi
    )


def ln_gamma_complex(z: complex) -> complex:
    """Log of the gamma function for complex argument.

    Raises ``PoleError`` at the poles z = 0, -1, -2, ... and ``DomainError``
    unless z is a ``systems.complex_scalar``, where the reflection's 2 pi z
    overflows (Re z below about -2.9e307) and where the result is not finite off
    the real axis (|z| above about 2.5e305, where ln Gamma overflows).  On the
    real axis it overflows to +inf there, the value :func:`ln_gamma_real` shares.
    """
    z = complex_scalar(z, "z")
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        value = _lanczos_ln_gamma(z)
    else:  # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        try:
            ln_sin = _ln_sin_pi(z)
        except ValueError:  # cmath.exp of an infinite phase
            raise DomainError(f"2 pi z overflows in the reflection at z = {z!r}") from None
        value = _LN_PI - ln_sin - _lanczos_ln_gamma(1.0 - z)
    if cmath.isfinite(value) or (z.imag == 0.0 and value.real == math.inf):
        return value
    raise DomainError(f"ln Gamma is not a finite complex at z = {z!r}")


def ln_gamma_real(x: float) -> float:
    """ln|Gamma(x)| for real x, exactly the real part of :func:`ln_gamma_complex`: its own
    Lanczos sum run on the float x on 1/2 <= x < inf, and itself at non-finite x, the poles
    and x < 1/2.  x is a ``systems.real_scalar``."""
    x = real_scalar(x, "x")
    if not 0.5 <= x < math.inf:
        return ln_gamma_complex(complex(x)).real
    return _lanczos_ln_gamma(x).real


@finite_result
def gamma_abs(z: complex) -> float:
    """|Gamma(z)|, strictly positive away from the poles; DomainError if not a finite double
    or below the normal doubles, where it underflows (|Im z| > 453.5 at Re z = 1)."""
    value = math.exp(ln_gamma_complex(z).real)
    if value < sys.float_info.min:
        raise DomainError(f"|Gamma| underflows below the normal doubles at z = {z!r}")
    return value


def _check_lower_parameter(c: complex, n: int, name: str) -> None:
    if c.imag == 0.0 and c.real == math.floor(c.real) and -(n - 1) <= c.real <= 0.0:
        raise DegenerateDenominatorError(
            f"{name} = {c.real:g} makes a denominator Pochhammer vanish "
            f"inside the degree-{n} sum"
        )


def _terminating_sum(n: int, term_factor, x_arr: np.ndarray) -> complex | np.ndarray:
    """Sum_{j=0}^{n} t_j, t_0 = 1, t_{j+1} = t_j term_factor(j) x, Neumaier-compensated, at
    each point of the complex128 ``x_arr`` (a complex if 0-d); DomainError if not finite.

    ``systems.blockwise`` hands an array over in blocks of at most max(1, _BLOCK // (n + 2))
    points; a 0-d x is summed as one block, and a block of one point as a 0-d x.  One
    array of (n + 2) x block values holds a 0 row, t_0 and the factors term_factor(j) x;
    the working set is a few such arrays.  A ufunc accumulate runs
    row after row, so the terms, the totals from 0 and the sum of the corrections
    (t_0's is 0) are those of the recurrence at each point alone, bit for bit, with
    unfused products (NumPy's elementwise complex multiply may fuse them).
    """
    factors = [term_factor(j) for j in range(n)]

    def block_sum(x: np.ndarray) -> np.ndarray:
        if x.shape == (1,):  # NumPy multiplies a 1 x 1 outer product by another loop
            x = x.reshape(())
        terms = np.empty((n + 2,) + x.shape, np.complex128)
        terms[0], terms[1] = 0.0, 1.0
        np.multiply.outer(factors, x, out=terms[2:])
        np.multiply.accumulate(terms[1:], out=terms[1:])
        totals = np.add.accumulate(terms)
        prev, new, terms = totals[:-1], totals[1:], terms[1:]
        fixes = np.where(np.abs(prev) >= np.abs(terms), (prev - new) + terms,
                         (terms - new) + prev)
        return totals[-1] + np.add.accumulate(fixes)[-1]

    with np.errstate(all="ignore"):  # an overflow surfaces as the DomainError below
        total = blockwise(block_sum, x_arr, n + 2) if x_arr.ndim else block_sum(x_arr)
    if total.ndim == 0:
        total = complex(total)
        if cmath.isfinite(total):
            return total
    elif np.isfinite(total).all():
        return total
    raise DomainError(f"the degree-{n} series is not finite at this x")


def hyp2f1_terminating(n: int, b: complex, c: complex, x) -> complex | np.ndarray:
    """Terminating Gauss series sum_{j=0}^{n} (-n)_j (b)_j / ((c)_j j!) x^j.

    ``x`` is a ``systems.complex_array``, a scalar or an array, and ``b``, ``c``
    ``systems.complex_scalar`` values; ``n`` is a ``systems.level_index``; ``c`` must
    avoid {0, -1, ..., -(n-1)}, or ``DegenerateDenominatorError`` is raised.  A sum
    that is not finite (an infinite ``x``, or terms that overflow) raises DomainError.
    """
    n = level_index(n, 0, "series degree")
    b = complex_scalar(b, "b")
    c = complex_scalar(c, "c")
    _check_lower_parameter(c, n, "c")
    return _terminating_sum(n, lambda j: (-n + j) * (b + j) / ((c + j) * (j + 1)),
                            complex_array(x, "x"))


def hyp1f1_terminating(n: int, c: complex, y) -> complex | np.ndarray:
    """Terminating Kummer series sum_{j=0}^{n} (-n)_j / ((c)_j j!) y^j; ``n``, ``c`` and
    ``y`` as ``n``, ``c`` and ``x`` in hyp2f1."""
    n = level_index(n, 0, "series degree")
    c = complex_scalar(c, "c")
    _check_lower_parameter(c, n, "c")
    return _terminating_sum(n, lambda j: (-n + j) / ((c + j) * (j + 1)), complex_array(y, "y"))


def jacobi_scaled(n: int, ab_sum: float, ab_product: float, x_w, d_w, w_sq) -> np.ndarray:
    """w^n P_n^(alpha, beta)(x) by the forward three-term recurrence (DLMF 18.9.2).

    Only ``ab_sum`` = alpha + beta, ``ab_product`` = alpha beta, ``x_w`` = x w,
    ``d_w`` = (alpha - beta) w and ``w_sq`` = w^2 enter, so every step is real
    when they are: w = 1 gives P_n at real x for real alpha, beta, and
    alpha, beta = -N +- i sigma at x = i cot(phi) with w = -i sin(phi) gives the
    real Romanovski form of the Coulomb states, finite where cot(phi) is not.
    ``n`` is a ``systems.level_index``, ``ab_sum`` and ``ab_product`` finite
    ``systems.real_scalar`` values (DomainError otherwise) and the arrays
    ``systems.real_array`` values; an ``ab_sum`` that makes a step's denominator
    vanish (an integer in [-n, -2], or an even one in [-2(n - 1), -2]) raises
    ``DegenerateDenominatorError``.
    The result has the shape of ``x_w``, for every n; ``d_w`` and ``w_sq``
    must broadcast to it, or DomainError is raised.  The inputs are never
    written: the recurrence runs in three buffers of that shape (and a fourth
    when ``d_w`` or ``w_sq`` is an array), each step computing
    (a x_w + b d_w) P_m - (c w_sq) P_(m-1) in that order of operations.
    """
    n = level_index(n, 0, "polynomial degree")
    ab_sum, ab_product = real_scalar(ab_sum, "ab_sum"), real_scalar(ab_product, "ab_product")
    if not (math.isfinite(ab_sum) and math.isfinite(ab_product)):
        raise DomainError(f"ab_sum and ab_product must be finite, got {ab_sum!r}, {ab_product!r}")
    # the steps 1 <= m < n divide by 2 (m + 1)(m + ab_sum + 1)(2m + ab_sum): zero at the
    # integers -2 ... -n and the even integers -2 ... -2(n - 1)
    if (-2.0 * (n - 1) <= ab_sum <= -2.0 and ab_sum == math.floor(ab_sum)
            and (ab_sum >= -n or ab_sum % 2.0 == 0.0)):
        raise DegenerateDenominatorError(
            f"alpha + beta = {ab_sum:g} makes a denominator of the degree-{n} recurrence vanish")
    x_w, d_w, w_sq = real_array(x_w, "x_w"), real_array(d_w, "d_w"), real_array(w_sq, "w_sq")
    try:
        shape = np.broadcast(x_w, d_w, w_sq).shape
    except ValueError:
        shape = None
    if shape != x_w.shape:
        raise DomainError(f"d_w {d_w.shape} and w_sq {w_sq.shape} must broadcast "
                          f"to the shape {x_w.shape} of x_w")
    prev = np.ones(x_w.shape)
    if n == 0:
        return prev
    value = np.multiply(x_w, ab_sum + 2.0, out=np.empty(x_w.shape))
    value += d_w
    value *= 0.5
    new = np.empty(x_w.shape)
    work = np.empty(x_w.shape) if d_w.ndim or w_sq.ndim else None
    if work is None:  # Python floats keep the scalar coefficient products out of numpy
        d_w, w_sq = float(d_w), float(w_sq)
    for m in range(1, n):
        t = 2.0 * m + ab_sum
        den = 2.0 * (m + 1) * (m + ab_sum + 1.0) * t
        step_x, step_d = (t + 1.0) * (t + 2.0) * t / den, (t + 1.0) * ab_sum / den
        back = 2.0 * (m * m + m * ab_sum + ab_product) * (t + 2.0) / den
        np.multiply(x_w, step_x, out=new)
        new += step_d * d_w if work is None else np.multiply(d_w, step_d, out=work)
        new *= value
        prev *= back * w_sq if work is None else np.multiply(w_sq, back, out=work)
        new -= prev
        prev, value, new = value, new, prev
    return value
