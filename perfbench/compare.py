"""Compare benchmark results of two versions, per metric, by median.

Usage::

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is a ``.perfbench_out/result-*.json`` written by ``run.py``.  All
files must come from one workload and one trace mode, and all must have run
on the same kernel backend (numba presence and use, ``CIRCLE_SQM_THREADS``,
``CIRCLE_SQM_PURE_NUMPY``); otherwise the comparison is refused with exit
code 2.  The output gives, per metric, each side's median and quartiles and
the ratio of the medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.provenance import backend_mismatch  # noqa: E402


def refusal(results: list[dict]) -> str | None:
    """Why these results may not be compared, or None when they may."""
    first = results[0]["provenance"]
    for other in results[1:]:
        prov = other["provenance"]
        for key in ("workload", "trace"):
            if prov[key] != first[key]:
                return f"results differ in {key}: {first[key]!r} vs {prov[key]!r}"
        differing = backend_mismatch(first, prov)
        if differing:
            return "results ran on different backends: " + ", ".join(
                f"{key}={first.get(key)!r} vs {prov.get(key)!r}" for key in differing)
    return None


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [[json.loads(Path(p).read_text()) for p in paths]
             for paths in (argv[:split], argv[split + 1:])]
    if not sides[0] or not sides[1]:
        print("compare: need at least one result on each side", file=sys.stderr)
        return 2
    reason = refusal(sides[0] + sides[1])
    if reason:
        print(f"compare: refused, {reason}", file=sys.stderr)
        return 2
    for name in sides[0][0]["metrics"]:
        base = summary([r["metrics"][name] for r in sides[0]])
        new = summary([r["metrics"][name] for r in sides[1]])
        ratio = new[1] / base[1] if base[1] else float("nan")
        print(f"{name}: base {base[1]:.6g} [{base[0]:.6g}, {base[2]:.6g}]  "
              f"new {new[1]:.6g} [{new[0]:.6g}, {new[2]:.6g}]  ratio {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
