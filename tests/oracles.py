"""Independent oracles used by the test suite.

Deliberately written from scratch (not imported from the package) so the
cross-checks do not share a code path with what they verify:

* exact complex-rational terminating hypergeometric sums (Fraction arithmetic,
  zero roundoff);
* the terminating hypergeometric sum on 0-d arrays, one new array per
  operation, whose results the scalar and array sums must match bit for bit,
  element by element;
* the Lanczos log-gamma sum as a loop over its coefficients, whose bits the
  package's written-out sum must give for a complex and a real argument;
* a plain trapezoid-with-Richardson integrator for smooth integrands;
* a high-precision LDL^T Sturm count for symmetric tridiagonal matrices;
* the float LDL^T recurrence of the Sturm kernels, shift and log-determinant
  included, which their serial loops must match bit for bit;
* the closed-form wavefunctions with one new array per operation, whose
  order of operations the in-place evaluators must match bit for bit;
* both states in mpmath by their Gauss-series closed forms, not the
  recurrence, with nu, sigma and k0 taken from the system's fields;
* closed-form spot values frozen from well-known identities;
* the CLI's JSON and CSV text of records and validation payloads, rendered
  one value at a time (CSV through the standard ``csv`` writer).
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class QC:
    """A complex number with exact rational components."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "QC") -> "QC":
        den = other.re * other.re + other.im * other.im
        return QC(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def shift(self, k: int) -> "QC":
        return QC(self.re + k, self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def qc(re, im=0) -> QC:
    return QC(Fraction(re), Fraction(im))


def hyp2f1_exact(n: int, b: QC, c: QC, x: QC) -> complex:
    """Terminating Gauss sum in exact rational arithmetic."""
    term = qc(1)
    total = qc(1)
    for j in range(n):
        term = term * qc(-n + j) * b.shift(j) / (c.shift(j) * qc(j + 1)) * x
        total = total + term
    return total.to_complex()


def hyp1f1_exact(n: int, c: QC, y: QC) -> complex:
    """Terminating Kummer sum in exact rational arithmetic."""
    term = qc(1)
    total = qc(1)
    for j in range(n):
        term = term * qc(-n + j) / (c.shift(j) * qc(j + 1)) * y
        total = total + term
    return total.to_complex()


def terminating_sum_allocating(n: int, term_factor, x):
    """Sum_{j=0}^{n} t_j, t_0 = 1, t_{j+1} = t_j term_factor(j) x, Neumaier-compensated.

    A scalar ``x`` runs on 0-d arrays, both compensation branches computed
    and one picked by ``np.where``.
    """
    x_arr = np.asarray(x, dtype=np.complex128)
    scalar = x_arr.ndim == 0
    total = np.ones_like(x_arr)
    comp = np.zeros_like(x_arr)
    term = np.ones_like(x_arr)
    for j in range(n):
        term = term * (term_factor(j) * x_arr)
        new_total = total + term
        comp = comp + np.where(
            np.abs(total) >= np.abs(term),
            (total - new_total) + term,
            (term - new_total) + total,
        )
        total = new_total
    result = total + comp
    return complex(result[()]) if scalar else result


def lanczos_ln_gamma_loop(z: complex, coeffs, g: float) -> complex:
    """ln Gamma(z) on Re z >= 1/2 by the Lanczos sum with parameter ``g``: the series
    coeffs[0] + sum_k coeffs[k] / (z + k - 1) added term by term in a loop."""
    series = coeffs[0]
    for k in range(1, len(coeffs)):
        series += coeffs[k] / (z + (k - 1))
    t = z + g - 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * cmath.log(t) - t + cmath.log(series)


def trapezoid_romberg(fn, a: float, b: float, levels: int = 14) -> float:
    """Romberg-accelerated trapezoid rule for smooth real integrands."""
    table = []
    n = 1
    values = 0.5 * (fn(np.array([a])) + fn(np.array([b])))
    h = b - a
    total = float(values.sum()) * h
    table.append([total])
    for level in range(1, levels):
        n *= 2
        h *= 0.5
        xs = a + (2.0 * np.arange(1, n // 2 + 1) - 1.0) * h
        total = 0.5 * table[-1][0] + h * float(np.sum(fn(xs)))
        row = [total]
        for j in range(1, level + 1):
            row.append(row[j - 1] + (row[j - 1] - table[-1][j - 1]) / (4.0**j - 1.0))
        table.append(row)
    return table[-1][-1]


def exact_sturm_counts(diag, off, shifts, digits: int = 400) -> list[int]:
    """Eigenvalues of the tridiagonal (diag, off) below each shift, by LDL^T in mpmath.

    The float entries and shifts are taken exactly and the recurrence runs
    at ``digits`` digits, so the count is exact unless a shift lies within
    about 10^-digits of an eigenvalue.  An exactly zero pivot is read as a
    negative infinitesimal, so an eigenvalue equal to the shift is counted.
    """
    import mpmath

    with mpmath.workdps(digits):
        d = [mpmath.mpf(float(x)) for x in diag]
        e2 = [mpmath.mpf(0)] + [mpmath.mpf(float(x)) ** 2 for x in off]
        infinitesimal = mpmath.mpf(10) ** (-4 * digits)
        counts = []
        for shift in shifts:
            s = mpmath.mpf(float(shift))
            q, count = mpmath.mpf(1), 0
            for di, ei in zip(d, e2):
                q = di - s - ei / q
                if q == 0:
                    q = -infinitesimal
                count += q < 0
            counts.append(count)
    return counts


def ldl_sturm_reference(diag, off, shifts) -> tuple[list[int], list[float]]:
    """Negative pivots of the LDL^T of the tridiagonal (diag, off) - shift, and the sum of
    ln|pivot|, per shift, in floats.

    One shift at a time, q = d - shift - |e| (|e| / q); a pivot of magnitude below
    pivmin = (1e-300 m) m, m = max(1, max |e|), is replaced by -pivmin.
    """
    e = [0.0] + [abs(float(x)) for x in off]
    m = max([1.0] + e)
    pivmin = 1e-300 * m * m
    counts, logdets = [], []
    for shift in map(float, shifts):
        q, count, logdet = 1.0, 0, 0.0
        for d, b in zip(map(float, diag), e):
            q = d - shift - b * (b / q)
            if abs(q) < pivmin:
                q = -pivmin
            count += q < 0.0
            logdet += math.log(abs(q))
        counts.append(count)
        logdets.append(logdet)
    return counts, logdets


def jacobi_scaled_allocating(n, ab_sum, ab_product, x_w, d_w, w_sq):
    """w^n P_n^(alpha, beta)(x) by the three-term recurrence, a new array per step."""
    x_w = np.asarray(x_w, dtype=float)
    prev, value = np.ones_like(x_w), 0.5 * (d_w + (ab_sum + 2.0) * x_w)
    for m in range(1, n):
        t = 2.0 * m + ab_sum
        den = 2.0 * (m + 1) * (m + ab_sum + 1.0) * t
        step = ((t + 1.0) * (t + 2.0) * t / den) * x_w + ((t + 1.0) * ab_sum / den) * d_w
        back = 2.0 * (m * m + m * ab_sum + ab_product) * (t + 2.0) / den
        prev, value = value, step * value - back * w_sq * prev
    return prev if n == 0 else value


def oscillator_wavefunction_allocating(norm: float, n: int, a: float, k0: float, phi):
    """norm sin^(1/2 + a) cos^(1/2 + k0) P_n^(a, k0)(cos 2 phi) at |phi|."""
    phi_abs = np.abs(np.asarray(phi, dtype=float))
    s, c = np.sin(phi_abs), np.cos(phi_abs)
    jacobi = jacobi_scaled_allocating(n, a + k0, a * k0, np.cos(2.0 * phi_abs), a - k0, 1.0)
    return norm * s ** (0.5 + a) * c ** (0.5 + k0) * jacobi


def coulomb_wavefunction_allocating(norm: float, n: int, nu: float, sigma: float, phi_abs):
    """norm (-2)^n n!/(2 nu)_n sin^nu e^(-sigma phi) Q_n at phi_abs in (0, pi)."""
    scale = 1.0
    for m in range(n):
        scale *= -2.0 * (m + 1) / (2.0 * nu + m)
    big_n = n + nu
    s = np.sin(phi_abs)
    romanovski = jacobi_scaled_allocating(n, -2.0 * big_n, big_n**2 + sigma**2,
                                          np.cos(phi_abs), 2.0 * sigma * s, -s * s)
    return norm * scale * s**nu * np.exp(-sigma * phi_abs) * romanovski


def coulomb_state_mpmath(system, n: int, phis, dps: int) -> list[complex]:
    """The Coulomb state at each angle at ``dps`` digits: C (sin phi)^nu
    e^(-i phi (n - i sigma)) 2F1(-n, nu + i sigma; 2 nu; 1 - e^(2 i phi)), with
    nu = (1 +- k1)/2, sigma = mu R/(n + nu) and C with 1/sqrt(R)."""
    import mpmath as mp

    with mp.workdps(dps):
        radius = mp.mpf(system.geometry.radius)
        nu = (1 + system.branch.sign * mp.mpf(system.k1)) / 2
        sigma = mp.mpf(system.mu) * radius / (n + nu)
        c = (mp.exp(sigma * mp.pi / 2) * 2**nu * abs(mp.gamma(nu + 1j * sigma))
             / mp.gamma(2 * nu)
             * mp.sqrt(((n + nu) ** 2 + sigma**2) * mp.gamma(n + 2 * nu)
                       / (4 * mp.pi * radius * (n + nu) * mp.factorial(n))))
        return [complex(c * mp.sin(phi) ** nu * mp.exp(-1j * phi * (n - 1j * sigma))
                        * mp.hyp2f1(-n, nu + 1j * sigma, 2 * nu, 1 - mp.exp(2j * phi)))
                for phi in phis]


def oscillator_state_mpmath(system, n: int, phis) -> list[float]:
    """The oscillator state at each |angle|: C s^(1/2 + a) c^(1/2 + k0)
    2F1(-n, n + k0 + a + 1; 1 + a; s^2), with a = +-k1, k0^2 = omega^2 R^4 + 1/4 and
    C with 1/sqrt(R), at the least 40 * 2^j digits whose values agree within 1e-15 of
    their peak with those at twice the digits (up to 1280)."""
    import mpmath as mp

    def values(dps):
        with mp.workdps(dps):
            radius = mp.mpf(system.geometry.radius)
            a = system.branch.sign * mp.mpf(system.k1)
            k0 = mp.sqrt((mp.mpf(system.omega) * radius**2) ** 2 + mp.mpf(1) / 4)
            ln_c2 = (mp.log(2 * (2 * n + k0 + a + 1)) + mp.loggamma(n + a + 1)
                     + mp.loggamma(n + k0 + a + 1) - mp.loggamma(n + k0 + 1)
                     - mp.loggamma(n + 1) - 2 * mp.loggamma(1 + a) - mp.log(radius))
            half = mp.mpf(1) / 2
            return [mp.exp(ln_c2 / 2) * mp.sin(abs(phi)) ** (half + a)
                    * mp.cos(phi) ** (half + k0)
                    * mp.hyp2f1(-n, n + k0 + a + 1, 1 + a, mp.sin(phi) ** 2) for phi in phis]

    dps, coarse = 40, values(40)
    while dps < 1280:
        dps *= 2
        fine = values(dps)
        peak = max(abs(v) for v in fine)
        if all(abs(u - v) <= 1e-15 * peak for u, v in zip(coarse, fine)):
            return [float(v) for v in fine]
        coarse = fine
    raise AssertionError(f"the oscillator oracle does not settle at n = {n} by {dps} digits")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def json_text(obj, indent: int = 0) -> str:
    """Indented JSON with every finite float at 17 significant digits and NaN and the
    infinities spelled as ``json.dumps`` spells them, one value at a time."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{json.dumps(key)}: {json_text(val, indent + 1)}'
                for key, val in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{json_text(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def records_text(fmt: str, kind: str, header: list[str], records: list[dict],
                 key: str = "records", **fields) -> str:
    """The CLI's output for ``records`` of ``kind``: CSV with ``header``, or the JSON
    payload with the envelope ``fields`` and the records under ``key``."""
    if fmt == "json":
        return json_text({"schema": "circle-sqm/1", "kind": kind, **fields, key: records}) + "\n"
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(["" if v is None else _fmt(v) if isinstance(v, float) else str(v)
                      for v in map(record.get, header)] for record in records)
    return text.getvalue()
