"""Outside oracles, run after the timed region: mpmath closed forms at 50
digits and, when scipy is installed, LAPACK tridiagonal eigenvalues.

The closed forms are re-derived here from the formulas in the package's
docstrings, in arbitrary precision, so a double-precision evaluation error in
the package (such as series cancellation at high n) shows as a mismatch.
"""

from __future__ import annotations

SPOT_TOL = 1e-8
EIGEN_REL_TOL = 1e-8


def oscillator_psi(omega: float, radius: float, k1: float, sign: int, n: int, phi: float):
    """C (sin phi)^(1/2 + a) (cos phi)^(1/2 + k0) 2F1(-n, n + k0 + a + 1; 1 + a; sin^2 phi)."""
    import mpmath as mp

    with mp.workdps(50):
        a = sign * mp.mpf(k1)
        k0 = mp.sqrt(mp.mpf(omega) ** 2 * mp.mpf(radius) ** 4 + mp.mpf(1) / 4)
        ln_c2 = (mp.log(2 * (2 * n + k0 + a + 1)) + mp.loggamma(n + a + 1)
                 + mp.loggamma(n + k0 + a + 1) - mp.loggamma(n + k0 + 1)
                 - mp.loggamma(n + 1) - 2 * mp.loggamma(1 + a) - mp.log(radius))
        phi = abs(mp.mpf(phi))
        s, c = mp.sin(phi), mp.cos(phi)
        value = (mp.exp(ln_c2 / 2) * s ** (mp.mpf(1) / 2 + a) * c ** (mp.mpf(1) / 2 + k0)
                 * mp.hyp2f1(-n, n + k0 + a + 1, 1 + a, s * s))
        return complex(value)


def coulomb_psi(mu: float, radius: float, k1: float, sign: int, n: int, phi: float):
    """C (sin phi)^nu e^(-i phi (n - i sigma)) 2F1(-n, nu + i sigma; 2 nu; 1 - e^(2 i phi))."""
    import mpmath as mp

    with mp.workdps(50):
        nu = (1 + sign * mp.mpf(k1)) / 2
        sigma = mp.mpf(mu) * radius / (n + nu)
        c = (mp.exp(sigma * mp.pi / 2) * 2**nu * abs(mp.gamma(nu + 1j * sigma)) / mp.gamma(2 * nu)
             * mp.sqrt(((n + nu) ** 2 + sigma**2) * mp.gamma(n + 2 * nu)
                       / (4 * mp.pi * radius * (n + nu) * mp.factorial(n))))
        phi = mp.mpf(phi)
        value = (c * mp.sin(phi) ** nu * mp.exp(-1j * phi * (n - 1j * sigma))
                 * mp.hyp2f1(-n, nu + 1j * sigma, 2 * nu, 1 - mp.exp(2j * phi)))
        return complex(value)


def spot_matches(got: complex, want: complex) -> bool:
    return abs(got - want) <= SPOT_TOL * max(1.0, abs(want))


def lapack_eigenvalue_errors(solves) -> list[float] | None:
    """Worst gap of each captured solve to ``scipy.linalg.eigh_tridiagonal``.

    Gaps are scaled by max(|eigenvalue|, 1), the validation engine's
    convention: the Coulomb ground state sits at E = 0, where a plain
    relative gap measures only roundoff.  Returns None when scipy is not
    installed: the check is then skipped and must be reported as skipped,
    never as passed.
    """
    try:
        from scipy.linalg import eigh_tridiagonal
    except ImportError:
        return None
    import numpy as np

    errors = []
    for diag, off, count, got in solves:
        want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, count - 1))
        errors.append(float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))))
    return errors
