"""Call-site spans around the package's public functions, installed from outside.

:class:`Tracer` replaces every module attribute of ``circle_sqm`` that refers
to a traced function (for example ``eigensolve.sturm_counts``, the name the
eigensolver calls through) with a wrapper that records a span, and puts the
originals back on exit.  Nothing in the package changes; a process that never
enters a tracer never sees a wrapper.

Spans nest: a span's self time is its duration minus the durations of the
spans it directly contains (the workloads run single-threaded, so children
never overlap).  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# (module, function); the layer name is the module path below ``circle_sqm``.
TARGETS = (
    ("circle_sqm.numerics._kernels", "sturm_counts"),
    ("circle_sqm.numerics.eigensolve", "lowest_eigenvalues"),
    ("circle_sqm.numerics.eigensolve", "build_hamiltonian"),
    ("circle_sqm.numerics.validate", "validate_system"),
    ("circle_sqm.numerics.validate", "contraction_check"),
    ("circle_sqm.numerics.validate", "specfun_reports"),
    ("circle_sqm.numerics.residual", "residual_rate"),
    ("circle_sqm.numerics.quadrature", "gauss_legendre_rule"),
    ("circle_sqm.specfun", "hyp2f1_terminating"),
    ("circle_sqm.specfun", "ln_gamma_complex"),
    ("circle_sqm.oscillator", "wavefunction"),
    ("circle_sqm.coulomb", "wavefunction"),
    ("circle_sqm.coulomb", "diamond_norm"),
    ("circle_sqm.coulomb", "norm_constant"),
    ("circle_sqm.cli", "main"),
)

STURM = "numerics._kernels.sturm_counts"
SOLVE = "numerics.eigensolve.lowest_eigenvalues"
HYP2F1 = "specfun.hyp2f1_terminating"

# Extra counters per layer, on top of calls / total_s / self_s.
EXTRA_COUNTERS = {
    STURM: ("rows", "row_shifts", "bytes_computed", "solve_passes"),
    HYP2F1: ("points", "point_terms"),
    "oscillator.wavefunction": ("points",),
    "coulomb.wavefunction": ("points",),
    "cli.main": ("bytes_written",),
}


def layer_name(module: str, function: str) -> str:
    return f"{module.removeprefix('circle_sqm.')}.{function}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _output_path(argv) -> str | None:
    argv = list(argv or [])
    if "--output" in argv[:-1]:
        return argv[argv.index("--output") + 1]
    return None


class Tracer:
    """Installs call-site wrappers on enter and restores the originals on exit.

    ``stats[layer]`` holds calls, total_s, self_s and the layer's extra
    counters; ``spans`` holds (span_id, parent_id, request_id, layer, start,
    end) tuples; ``solves`` keeps a copy of the matrix, count and result of
    every ``lowest_eigenvalues`` call, for an outside oracle.
    """

    def __init__(self) -> None:
        self.solves: list[tuple[np.ndarray, np.ndarray, int, np.ndarray]] = []
        self.stats = {
            layer_name(m, f): dict.fromkeys(
                ("calls", "total_s", "self_s") + EXTRA_COUNTERS.get(layer_name(m, f), ()), 0)
            for m, f in TARGETS
        }
        self.spans: list[tuple] = []
        self.request_id: int | None = None
        self._stack: list[list] = []  # [span_id, layer, child_seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module_name, function in TARGETS:
                original = getattr(importlib.import_module(module_name), function)
                wrapper = self._wrap(layer_name(module_name, function), original)
                for name, module in list(sys.modules.items()):
                    if name != "circle_sqm" and not name.startswith("circle_sqm."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        stack = self._stack
        count = {
            STURM: self._count_sturm,
            SOLVE: self._count_solve,
            HYP2F1: self._count_hyp2f1,
            "oscillator.wavefunction": self._count_points,
            "coulomb.wavefunction": self._count_points,
            "cli.main": self._count_cli,
        }.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[2]
                self.spans.append((span_id, parent[0] if parent else None,
                                   self.request_id, layer, start, end))
            if count is not None:
                count(stats, args, kwargs, result, parent)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _count_sturm(self, stats, args, kwargs, result, parent) -> None:
        rows = int(np.size(_arg(args, kwargs, 0, "diag")))
        shifts = int(np.size(_arg(args, kwargs, 2, "shifts")))
        stats["rows"] += rows
        stats["row_shifts"] += rows * shifts
        # computed traffic model: diag and off_sq once per row, plus the pivot
        # vector read and written once per row and shift (8-byte floats)
        stats["bytes_computed"] += 8 * rows * (2 + 2 * shifts)
        if parent is not None and parent[1] == SOLVE:
            stats["solve_passes"] += 1

    def _count_solve(self, stats, args, kwargs, result, parent) -> None:
        matrix = _arg(args, kwargs, 0, "matrix")
        self.solves.append((matrix.diagonal.copy(), matrix.off_diagonal.copy(),
                            int(_arg(args, kwargs, 1, "count")), np.array(result)))

    def _count_hyp2f1(self, stats, args, kwargs, result, parent) -> None:
        points = int(np.size(_arg(args, kwargs, 3, "x")))
        stats["points"] += points
        stats["point_terms"] += points * (int(_arg(args, kwargs, 0, "n")) + 1)

    def _count_points(self, stats, args, kwargs, result, parent) -> None:
        stats["points"] += int(np.size(_arg(args, kwargs, 2, "phi")))

    def _count_cli(self, stats, args, kwargs, result, parent) -> None:
        path = _output_path(_arg(args, kwargs, 0, "argv"))
        if path is not None and os.path.exists(path):
            stats["bytes_written"] += os.path.getsize(path)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics: counters plus the derived per-unit costs."""
        out = {}
        for layer, stats in self.stats.items():
            for key in ("calls", "total_s", "self_s"):
                out[f"{layer}.{key}"] = stats[key]
        sturm, solve, hyp = self.stats[STURM], self.stats[SOLVE], self.stats[HYP2F1]
        out[f"{STURM}.rows"] = sturm["rows"]
        out[f"{STURM}.row_shifts"] = sturm["row_shifts"]
        out[f"{STURM}.bytes_computed"] = sturm["bytes_computed"]
        out[f"{STURM}.ns_per_row"] = _per(sturm["total_s"] * 1e9, sturm["rows"])
        out[f"{SOLVE}.passes_per_solve"] = _per(sturm["solve_passes"], solve["calls"])
        out[f"{SOLVE}.shifts_per_pass"] = _per(sturm["row_shifts"], sturm["rows"])
        out[f"{HYP2F1}.points"] = hyp["points"]
        out[f"{HYP2F1}.ns_per_point_term"] = _per(hyp["total_s"] * 1e9, hyp["point_terms"])
        for layer in ("oscillator.wavefunction", "coulomb.wavefunction"):
            out[f"{layer}.points"] = self.stats[layer]["points"]
        out["cli.main.bytes_written"] = self.stats["cli.main"]["bytes_written"]
        out["trace.wall_s"] = wall_s
        return out

    def repeat_counts(self) -> dict[str, int]:
        """The counts that two traced passes over the same requests must repeat."""
        sturm, hyp = self.stats[STURM], self.stats[HYP2F1]
        return {
            f"{STURM}.calls": sturm["calls"],
            f"{STURM}.rows": sturm["rows"],
            f"{STURM}.row_shifts": sturm["row_shifts"],
            f"{HYP2F1}.calls": hyp["calls"],
            f"{HYP2F1}.points": hyp["points"],
            "numerics.quadrature.gauss_legendre_rule.calls":
                self.stats["numerics.quadrature.gauss_legendre_rule"]["calls"],
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, layer, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                         "layer": layer, "start": start, "end": end}) + "\n")


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def installed_wrappers() -> list[str]:
    """Module attributes of ``circle_sqm`` that are still tracer wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "circle_sqm" or name.startswith("circle_sqm."):
            found += [f"{name}.{attr}" for attr, value in vars(module).items()
                      if getattr(value, "__perfbench_wrapper__", False)]
    return found
