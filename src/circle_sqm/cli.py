"""Command-line front end: spectra, wavefunction samples and validation suites
as reproducible file outputs.

All numbers are computed by direct library calls (the CLI does no arithmetic
of its own) and printed with 17 significant digits, so identical
configurations produce byte-identical files.  Angles are radians throughout.
Files are written atomically (temp file then rename).  JSON payloads carry a
``schema: "circle-sqm/1"`` key; CSV output is RFC-4180 style with a header
row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import coulomb, oscillator
from .errors import CircleSqmError
from .numerics.validate import SUITE_NAMES, run_suite
from .systems import Branch, CircleGeometry, merged_levels


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{json.dumps(key)}: {_json_text(val, indent + 1)}'
                for key, val in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_json_text(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".circle-sqm-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\r\n".join(lines) + "\r\n"


_MODULES = {"oscillator": oscillator, "coulomb": coulomb}


def _build_system(args):
    geometry = CircleGeometry(args.radius)
    branch = Branch.MINUS if args.branch == "minus" else Branch.PLUS
    if args.system == "oscillator":
        if args.omega is None:
            raise ValueError("--omega is required for the oscillator system")
        return oscillator.OscillatorSystem(geometry, omega=args.omega, k1=args.k1,
                                           branch=branch)
    if args.mu is None:
        raise ValueError("--mu is required for the coulomb system")
    return coulomb.CoulombSystem(geometry, mu=args.mu, k1=args.k1, branch=branch)


def _spectrum_records(args) -> list[dict]:
    if args.levels < 0:
        raise ValueError("--levels must be >= 0")
    module = _MODULES[args.system]
    system = _build_system(args)  # "both" builds the plus member
    if args.levels == 0:
        return []
    records = []
    for n, member, energy in merged_levels(system, args.levels - 1, module.energy_level):
        if args.branch not in ("both", member.branch.value):
            continue
        qn = coulomb.quantize(member, n) if args.system == "coulomb" else None
        records.append({"system": args.system, "n": n, "branch": member.branch.value,
                        "nu": qn.nu if qn else None, "sigma": qn.sigma if qn else None,
                        "energy": energy})
    return records


def _cmd_spectrum(args) -> int:
    records = _spectrum_records(args)
    if args.format == "json":
        text = _json_text({"schema": "circle-sqm/1", "kind": "spectrum",
                           "records": records}) + "\n"
    else:
        header = ["system", "n", "branch", "nu", "sigma", "energy"]
        rows = [[r["system"], str(r["n"]), r["branch"],
                 "" if r["nu"] is None else _fmt(r["nu"]),
                 "" if r["sigma"] is None else _fmt(r["sigma"]),
                 _fmt(r["energy"])] for r in records]
        text = _csv_text(header, rows)
    _write_output(text, args.output)
    return 0


def _cmd_wavefunction(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    system = _build_system(args)
    lo, hi = system.motion_domain
    step = (hi - lo) / args.samples
    phis = lo + (np.arange(args.samples) + 0.5) * step
    values = np.asarray(_MODULES[args.system].wavefunction(system, args.n, phis), dtype=complex)
    records = [{"phi": float(phi), "re": float(val.real), "im": float(val.imag)}
               for phi, val in zip(phis, values)]
    if args.format == "json":
        text = _json_text({"schema": "circle-sqm/1", "kind": "wavefunction",
                           "records": records}) + "\n"
    else:
        rows = [[_fmt(r["phi"]), _fmt(r["re"]), _fmt(r["im"])] for r in records]
        text = _csv_text(["phi", "re", "im"], rows)
    _write_output(text, args.output)
    return 0


def _cmd_validate(args) -> int:
    reports = run_suite(args.suite)
    passed = all(report.passed for report in reports)
    payload = {
        "schema": "circle-sqm/1",
        "kind": "validation",
        "suite": args.suite,
        "passed": passed,
        "reports": [report.to_dict() for report in reports],
    }
    _write_output(_json_text(payload) + "\n", args.output)
    return 0 if passed else 1


def _add_system_arguments(parser: argparse.ArgumentParser, branch_choices) -> None:
    parser.add_argument("--system", required=True, choices=("oscillator", "coulomb"))
    parser.add_argument("--radius", required=True, type=float, help="circle radius R > 0")
    parser.add_argument("--k1", required=True, type=float,
                        help="singular-term strength k1")
    parser.add_argument("--omega", type=float, default=None,
                        help="oscillator frequency (oscillator only)")
    parser.add_argument("--mu", type=float, default=None,
                        help="Coulomb coupling (coulomb only)")
    parser.add_argument("--branch", choices=branch_choices, default=branch_choices[0])
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circle-sqm",
        description="Exactly-solvable quantum systems on the circle: spectra, "
                    "wavefunctions and validation suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="emit energy levels sorted by energy")
    _add_system_arguments(p_spec, ("both", "plus", "minus"))
    p_spec.add_argument("--levels", required=True, type=int,
                        help="number of n values per admissible branch")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_wave = sub.add_parser("wavefunction", help="sample one bound state on a uniform grid")
    _add_system_arguments(p_wave, ("plus", "minus"))
    p_wave.add_argument("--n", required=True, type=int, help="level index")
    p_wave.add_argument("--samples", required=True, type=int,
                        help="grid size (first sample at half a step inside)")
    p_wave.set_defaults(func=_cmd_wavefunction)

    p_val = sub.add_parser("validate", help="run a validation suite and write its report")
    p_val.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_val.add_argument("--output", default=None, help="report path (default stdout)")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CircleSqmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
