"""Benchmark the Sturm-multisection eigenvalue solve: numba JIT vs pure numpy.

The Sturm count is the inner loop of the finite-difference validation engine:
O(N) strictly sequential work per shift; multisection makes about 10-12
passes of up to 256 shifts per solve.
This script times the full lowest-eigenvalue solve on a realistic Hamiltonian
(singular oscillator, k1 = 3/2) for both kernel paths and checks that they
agree bitwise.

Run:  python benchmarks/bench_sturm.py
The paths are selected the same way the library selects them at import time,
so each backend runs in its own subprocess with CIRCLE_SQM_PURE_NUMPY set.
"""

import json
import math
import os
import subprocess
import sys
import time

GRID_SIZES = (2048, 4096, 8192, 16384)
EIGENVALUE_COUNT = 6
REPEATS = 3

DRIVER = r"""
import json
import math
import sys
import time

import numpy as np

from circle_sqm import CircleGeometry
from circle_sqm.oscillator import OscillatorSystem, potential
from circle_sqm.numerics import _kernels
from circle_sqm.numerics.eigensolve import build_hamiltonian, lowest_eigenvalues

grid_sizes = json.loads(sys.argv[1])
count = int(sys.argv[2])
repeats = int(sys.argv[3])

system = OscillatorSystem(CircleGeometry(1.0), omega=1.0, k1=1.5)
results = {}
for n in grid_sizes:
    matrix = build_hamiltonian(lambda phi: potential(system, phi), 1.0,
                               (0.0, math.pi / 2), n)
    lowest_eigenvalues(matrix, count)  # warm up (JIT compile on the numba path)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        values = lowest_eigenvalues(matrix, count)
        best = min(best, time.perf_counter() - start)
    results[str(n)] = {"seconds": best, "values": values.tolist()}
print(json.dumps({"use_numba": _kernels.USE_NUMBA, "results": results}))
"""


def run_backend(pure_numpy: bool) -> dict:
    env = dict(os.environ)
    env["CIRCLE_SQM_PURE_NUMPY"] = "1" if pure_numpy else "0"
    out = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(GRID_SIZES), str(EIGENVALUE_COUNT),
         str(REPEATS)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    print("=" * 72)
    print(f"Sturm multisection: lowest {EIGENVALUE_COUNT} eigenvalues, "
          f"best of {REPEATS} runs")
    print("=" * 72)
    numba_run = run_backend(pure_numpy=False)
    numpy_run = run_backend(pure_numpy=True)
    if not numba_run["use_numba"]:
        print("warning: numba backend unavailable, timing numpy against itself")

    print(f"{'N':>8} {'numba [s]':>12} {'numpy [s]':>12} {'speedup':>9}   identical")
    all_match = True
    for n in GRID_SIZES:
        fast = numba_run["results"][str(n)]
        slow = numpy_run["results"][str(n)]
        match = fast["values"] == slow["values"]
        all_match = all_match and match
        print(f"{n:>8} {fast['seconds']:>12.5f} {slow['seconds']:>12.5f} "
              f"{slow['seconds'] / fast['seconds']:>8.1f}x   {match}")
    print("-" * 72)
    print(f"backends agree bitwise on all grids: {all_match}")
    return 0 if all_match else 1


if __name__ == "__main__":
    raise SystemExit(main())
