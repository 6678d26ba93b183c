"""Sensitivity of the validation engine: a wrong closed form fails a report.

Each row perturbs one shipped function on its module, runs the smallest suite that
should notice, and expects a failing report whose case id starts with the given prefix.
The suites look their functions up on the modules when they run, so a patched module
attribute reaches them.  Perturbations the engine does not catch yet are listed in
ROADMAP.md, not here.
"""

import importlib

import pytest

from circle_sqm.numerics.validate import run_suite


def _level(args) -> int:
    """The level or degree of a call: its first int argument."""
    return next(arg for arg in args if type(arg) is int)


PERTURBATIONS = {
    "times": lambda value, m, args: value * (1.0 + m),
    "plus": lambda value, m, args: value + m,
    "times at n >= 3": lambda value, m, args: value * (1.0 + m) if _level(args) >= 3 else value,
}

# (module attribute, perturbation, magnitude, suite, expected failing case-id prefix)
ROWS = [
    ("oscillator.energy_level", "times", 1e-7, "oscillator-fd", "oscillator-fd/levels-order"),
    ("oscillator.potential", "times", 1e-6, "oscillator-fd", "oscillator-fd/levels-order"),
    ("coulomb.energy_level", "times at n >= 3", 1e-7, "coulomb-fd", "coulomb-fd/levels-order"),
    ("coulomb.potential", "times", 1e-6, "coulomb-fd", "coulomb-fd/levels-order"),
    ("coulomb.energy_level", "times", 1e-12, "contraction",
     "contraction[nu=0.25,n=0]/energy-gap"),
    # the shipped level falls below its flat-space limit at R = 1e4: a failing report,
    # not a refusal
    ("coulomb.energy_level", "times", 1e-9, "contraction",
     "contraction[nu=0.25,n=0]/energy-gap"),
    ("oscillator.wavefunction", "plus", 1e-7, "norms", "norms/oscillator["),
    ("coulomb.wavefunction", "plus", 1e-7, "norms", "norms/coulomb["),
    ("coulomb.norm_constant", "times", 1e-9, "norms", "norms/constant-consistency"),
    ("coulomb.contour_norm_constant", "times", 1e-9, "norms", "norms/constant-consistency"),
    ("oscillator._norm_constant", "times", 1e-7, "norms", "norms/oscillator["),
    ("specfun.jacobi_scaled", "times at n >= 3", 1e-6, "norms", "norms/coulomb["),
    ("specfun.ln_gamma_complex", "plus", 1e-12, "specfun", "specfun/gamma-identity"),
    # the one Lanczos sum: the oscillator's Gamma ratios run it through ln_gamma_real
    ("specfun._lanczos_ln_gamma", "times", 1e-7, "norms", "norms/oscillator["),
]


@pytest.mark.parametrize("target, perturbation, magnitude, suite, prefix", ROWS,
                         ids=[f"{row[0]}-{row[1]}-{row[2]:g}" for row in ROWS])
def test_perturbation_fails_a_report(monkeypatch, target, perturbation, magnitude, suite,
                                     prefix):
    module_name, name = target.split(".")
    module = importlib.import_module(f"circle_sqm.{module_name}")
    shipped, perturb = getattr(module, name), PERTURBATIONS[perturbation]
    monkeypatch.setattr(module, name,
                        lambda *args: perturb(shipped(*args), magnitude, args))
    failing = [report.case_id for report in run_suite(suite) if not report.passed]
    assert any(case_id.startswith(prefix) for case_id in failing), failing
