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
  real part are consumed by this package).
* Terminating hypergeometric series are summed by forward term recurrence
  with compensated (Neumaier) accumulation; no gamma-ratio prefactors are
  formed, so negative-integer upper parameters are handled exactly.  A
  scalar argument runs the same NumPy operations on ``complex128`` scalars,
  with no 0-d array built per term.
* Both wavefunctions are Jacobi polynomials, evaluated by the forward
  three-term recurrence in real arithmetic (:func:`jacobi_scaled`).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateDenominatorError, DomainError, PoleError
from .systems import finite_result

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


def _check_finite(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must have finite components, got {z!r}")
    return z


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _lanczos_ln_gamma(z: complex) -> complex:
    # valid for Re z >= 0.5
    series = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[k] / (z + (k - 1))
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
    for non-finite input.
    """
    z = _check_finite(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        return _lanczos_ln_gamma(z)
    # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
    return _LN_PI - _ln_sin_pi(z) - _lanczos_ln_gamma(1.0 - z)


@finite_result
def gamma_abs(z: complex) -> float:
    """|Gamma(z)|, strictly positive away from the poles; DomainError if not a finite double."""
    return math.exp(ln_gamma_complex(z).real)


def _check_lower_parameter(c: complex, n: int, name: str) -> None:
    if c.imag == 0.0 and c.real == math.floor(c.real) and -(n - 1) <= c.real <= 0.0:
        raise DegenerateDenominatorError(
            f"{name} = {c.real:g} makes a denominator Pochhammer vanish "
            f"inside the degree-{n} sum"
        )


def _terminating_sum(n: int, term_factor, x) -> complex | np.ndarray:
    """Sum_{j=0}^{n} t_j with t_0 = 1 and t_{j+1} = t_j * term_factor(j) * x.

    Neumaier-compensated accumulation, vectorized over ``x``; a scalar ``x``
    runs on ``complex128`` scalars, its branch picked by ``if``, not ``np.where``.
    """
    x_arr = np.asarray(x, dtype=np.complex128)
    scalar = x_arr.ndim == 0
    total = term = np.complex128(1.0) if scalar else np.ones_like(x_arr)
    comp = np.complex128(0.0) if scalar else np.zeros_like(x_arr)
    for j in range(n):
        term = term * (term_factor(j) * x_arr)
        new_total = total + term
        bigger = np.abs(total) >= np.abs(term)
        if not scalar:
            comp = comp + np.where(bigger, (total - new_total) + term, (term - new_total) + total)
        else:
            comp = comp + ((total - new_total) + term if bigger else (term - new_total) + total)
        total = new_total
    return complex(total + comp) if scalar else total + comp


def hyp2f1_terminating(n: int, b: complex, c: complex, x) -> complex | np.ndarray:
    """Terminating Gauss series sum_{j=0}^{n} (-n)_j (b)_j / ((c)_j j!) x^j.

    ``x`` may be a scalar or an ndarray (complex); parameters are scalars.
    ``n >= 0`` and ``c`` must avoid {0, -1, ..., -(n-1)}; a violation raises
    ``DegenerateDenominatorError``.
    """
    if n < 0:
        raise DomainError(f"series degree must be >= 0, got {n}")
    b = _check_finite(b, "b")
    c = _check_finite(c, "c")
    _check_lower_parameter(c, n, "c")
    return _terminating_sum(n, lambda j: (-n + j) * (b + j) / ((c + j) * (j + 1)), x)


def hyp1f1_terminating(n: int, c: complex, y) -> complex | np.ndarray:
    """Terminating Kummer series sum_{j=0}^{n} (-n)_j / ((c)_j j!) y^j."""
    if n < 0:
        raise DomainError(f"series degree must be >= 0, got {n}")
    c = _check_finite(c, "c")
    _check_lower_parameter(c, n, "c")
    return _terminating_sum(n, lambda j: (-n + j) / ((c + j) * (j + 1)), y)


def jacobi_scaled(n: int, ab_sum: float, ab_product: float, x_w, d_w, w_sq) -> np.ndarray:
    """w^n P_n^(alpha, beta)(x) by the forward three-term recurrence (DLMF 18.9.2).

    Only ``ab_sum`` = alpha + beta, ``ab_product`` = alpha beta, ``x_w`` = x w,
    ``d_w`` = (alpha - beta) w and ``w_sq`` = w^2 enter, so every step is real
    when they are: w = 1 gives P_n at real x for real alpha, beta, and
    alpha, beta = -N +- i sigma at x = i cot(phi) with w = -i sin(phi) gives the
    real Romanovski form of the Coulomb states, finite where cot(phi) is not.
    The result has the shape of ``x_w``, for every n; ``d_w`` and ``w_sq``
    must broadcast to it, or DomainError is raised.  The inputs are never
    written: the recurrence runs in three buffers of that shape (and a fourth
    when ``d_w`` or ``w_sq`` is an array), each step computing
    (a x_w + b d_w) P_m - (c w_sq) P_(m-1) in that order of operations.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    x_w = np.asarray(x_w, dtype=float)
    d_w, w_sq = np.asarray(d_w, dtype=float), np.asarray(w_sq, dtype=float)
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
