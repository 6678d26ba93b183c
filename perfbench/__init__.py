"""Layered benchmark for circle-sqm: seeded workloads, end-to-end metrics and
call-site spans around the package's public functions.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.
"""
