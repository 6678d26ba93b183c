"""Run one workload of the circle-sqm benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {validate-all,closed-form,cli-requests}
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of fresh
interpreters that import the package and run the workload's lazy set-up),
then a closed loop with one client for ``--seconds`` seconds.  ``--trace 1``
runs a fixed prefix of the same requests three times: untraced in a child
process that never installs a wrapper, then twice with call-site spans, and
reports the per-layer metrics of the first traced pass, the tracing overhead
and whether the counts of the two traced passes repeat.  ``--smoke`` shrinks
every run to a fraction of a second, for the benchmark's own tests.

Every metric is printed by name and unit, the provenance and oracle notes are
printed and stored under ``.perfbench_out/``, and the last line of standard
output is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 12

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import probe  # noqa: E402


def closed_loop(workload, requests, seconds: float | None, tracer=None):
    """Send requests one after another until the next one, at the mean latency
    so far, would end after ``seconds``; or, when ``seconds`` is None, for one
    pass over ``requests``.  At least one request is sent.  Returns (done,
    latencies, wall_s, errors)."""
    done, latencies, errors = [], [], []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    index = 0
    while True:
        request = requests[index % len(requests)]
        if tracer is not None:
            tracer.request_id = index
        began = time.perf_counter()
        try:
            raw = workload.run(request, index)
            failure = None
        except Exception:  # a failed request is counted, the loop goes on
            failure = traceback.format_exc(limit=3)
        ended = time.perf_counter()
        latencies.append(ended - began)
        outcome = None
        if failure is None:
            try:
                outcome = workload.finish(request, index, raw)
            except Exception:
                failure = traceback.format_exc(limit=3)
        if failure is not None and len(errors) < 5:
            errors.append(failure)
        done.append((request, outcome))
        index += 1
        if deadline is None:
            if index >= len(requests):
                break
        elif ended + (ended - start) / index > deadline:
            break
    return done, latencies, time.perf_counter() - start, errors


def time_setup(workload: str, scratch: str, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running the set-up probe."""
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, scratch],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - began)
    return times


def percentile_90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]


def run_untraced(args, workload, requests, scratch: str) -> dict:
    # half the set-up probes before the loop and half after, so the median
    # samples the machine at two moments
    repeats = 1 if args.smoke else SETUP_REPEATS // 2
    setup_times = time_setup(args.workload, scratch, repeats)
    probe.warm_up(args.workload, scratch)
    done, latencies, wall, errors = closed_loop(workload, requests, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup_s = statistics.median(setup_times + time_setup(args.workload, scratch, repeats))
    verdict = workload.check(done)
    failed = sum(verdict.failed)
    metrics = {
        "setup_s": setup_s,
        "request_p50_s": statistics.median(latencies),
        "request_p90_s": percentile_90(latencies),
        "throughput_rps": len(done) / wall,
        "ok_frac": 1.0 - failed / len(done),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = dict(verdict.notes, failed_frac=failed / len(done), requests=len(done),
                 wall_s=wall, errors=errors)
    return {"correct": verdict.correct, "attempted": len(done), "failed": failed,
            "metrics": metrics, "notes": notes}


def run_traced(args, workload, requests, scratch: str, spans_path: Path) -> dict:
    from perfbench import oracles, tracer

    prefix = requests[:workload.traced_requests]
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "0", "--reference", str(len(prefix))]
        + (["--smoke"] if args.smoke else []),
        check=True, capture_output=True, text=True)
    untraced_wall = json.loads(child.stdout.strip().splitlines()[-1])["wall_s"]

    probe.warm_up(args.workload, scratch)
    with tracer.Tracer() as first:
        done, _, wall, errors = closed_loop(workload, prefix, None, first)
    with tracer.Tracer() as second:
        closed_loop(workload, prefix, None, second)
    leftover = tracer.installed_wrappers()

    verdict = workload.check(done)
    failed_flags = list(verdict.failed)
    correct = verdict.correct and not leftover
    lapack = oracles.lapack_eigenvalue_errors(first.solves) if first.solves else []
    if lapack is None:
        lapack_status = "skipped: scipy is not installed"
    elif not lapack:
        lapack_status = "not applicable: no eigenvalue solve in this workload"
    else:
        worst = max(lapack)
        lapack_status = f"{'passed' if worst <= oracles.EIGEN_REL_TOL else 'FAILED'}: " \
                        f"{len(lapack)} solves, worst relative gap {worst:.3e}"
        if worst > oracles.EIGEN_REL_TOL:
            correct = False
            failed_flags = [True] * len(failed_flags)

    counts = first.repeat_counts()
    drift = {key: [value, second.repeat_counts()[key]] for key, value in counts.items()
             if value != second.repeat_counts()[key]}
    metrics = first.layer_metrics(wall)
    metrics["trace.overhead_frac"] = wall / untraced_wall - 1.0
    first.write_spans(str(spans_path))
    sturm_self = first.stats[tracer.STURM]["self_s"]
    notes = dict(verdict.notes, requests=len(done), traced_wall_s=wall,
                 untraced_wall_s=untraced_wall, sturm_self_share=sturm_self / wall,
                 lapack_oracle=lapack_status, repeat_counts=counts,
                 count_drift=drift or None, leftover_wrappers=leftover, errors=errors,
                 spans=str(spans_path.relative_to(ROOT)), span_count=len(first.spans))
    return {"correct": correct, "attempted": len(done), "failed": sum(failed_flags),
            "metrics": metrics, "notes": notes}


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run length, for the benchmark's own tests")
    parser.add_argument("--reference", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 0.3)

    probe.import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    scratch = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch, args.smoke)
        requests = workload.requests()
        if args.reference is not None:
            # untraced timing of a fixed prefix, for the traced run's overhead
            probe.warm_up(args.workload, scratch)
            _, _, wall, _ = closed_loop(workload, requests[:args.reference], None)
            print(json.dumps({"wall_s": wall}))
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        if args.trace:
            result = run_traced(args, workload, requests, scratch,
                                OUT_DIR / f"spans-{stem}.jsonl")
        else:
            result = run_untraced(args, workload, requests, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    from perfbench import provenance

    missing = sorted(set(expected) - set(result["metrics"]))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    result["provenance"] = dict(provenance.collect(args.seed), workload=args.workload,
                                seconds=args.seconds, trace=args.trace, smoke=args.smoke)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(result["provenance"]))
    for key, value in result["notes"].items():
        if key != "errors":
            print(f"note {key} {json.dumps(value)}")
    for error in result["notes"]["errors"]:
        print("error " + error.replace("\n", "\n  "), file=sys.stderr)
    print(f"requests attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name in expected:
        print(f"metric {name} = {result['metrics'][name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
