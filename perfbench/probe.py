"""Lazy set-up that the first request of each workload triggers.

Run as a script, this is the ``setup_s`` probe: a fresh interpreter imports
``circle_sqm`` from ``<root>/src`` and runs the warm-up of one workload::

    python3 perfbench/probe.py <workload> <scratch-dir>

The benchmark also calls :func:`warm_up` in-process before it times anything,
so caches are filled and lazy set-up has finished when the clock starts.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import ``circle_sqm`` from this checkout's ``src``, never another copy."""
    if not (SRC / "circle_sqm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no circle_sqm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import circle_sqm

    if Path(circle_sqm.__file__).resolve().parent != SRC / "circle_sqm":
        raise SystemExit(f"perfbench: imported circle_sqm from {circle_sqm.__file__}, not {SRC}")
    return circle_sqm


def warm_up(workload: str, scratch: str) -> None:
    """Trigger what the workload's first request would set up lazily."""
    import numpy as np

    from circle_sqm import Branch, CircleGeometry, cli, coulomb, oscillator
    from circle_sqm.numerics import build_hamiltonian, lowest_eigenvalues
    from circle_sqm.numerics.quadrature import gauss_legendre_rule

    if workload == "validate-all":
        cli.build_parser()
        # numba compiles the Sturm kernel on first use when it is present
        matrix = build_hamiltonian(lambda phi: 1.0 / np.sin(phi) ** 2, 1.0, (0.0, math.pi), 16)
        lowest_eigenvalues(matrix, 2)
        gauss_legendre_rule(48, 12, 0.0, math.pi / 2, endpoint_refinement=40)
    elif workload == "closed-form":
        geometry = CircleGeometry(1.0)
        phi = np.linspace(0.1, 1.4, 16)
        osc = oscillator.OscillatorSystem(geometry, omega=1.0, k1=1.5, branch=Branch.PLUS)
        oscillator.energy_level(osc, 1)
        oscillator.wavefunction(osc, 1, phi)
        gauss_legendre_rule(48, 12, 0.0, math.pi / 2, endpoint_refinement=40)
        cou = coulomb.CoulombSystem(geometry, mu=1.0, k1=1.0, branch=Branch.PLUS)
        coulomb.energy_level(cou, 1)
        coulomb.wavefunction(cou, 1, phi)
        coulomb.diamond_norm(cou, 1)
    elif workload == "cli-requests":
        cli.main(["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
                  "--k1", "1", "--levels", "1", "--output", os.path.join(scratch, "probe.json")])
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    import_package()
    warm_up(sys.argv[1], sys.argv[2])
