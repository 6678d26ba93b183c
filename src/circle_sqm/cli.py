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
from .errors import CircleSqmError, DomainError
from .numerics.validate import SUITE_NAMES, run_suite
from .systems import Branch, CircleGeometry, closed_forms, spectrum


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
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".circle-sqm-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:  # name the target, not the temp file removed below
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _emit(args, kind: str, header: list[str], records: list[dict]) -> int:
    """Write ``records`` as the JSON payload of ``kind``, or as CSV with the ``header`` columns."""
    if args.format == "json":
        text = _json_text({"schema": "circle-sqm/1", "kind": kind, "records": records}) + "\n"
    else:
        rows = [header] + [["" if v is None else _fmt(v) if isinstance(v, float) else str(v)
                            for v in map(record.get, header)] for record in records]
        text = "".join(",".join(row) + "\r\n" for row in rows)
    _write_output(text, args.output)
    return 0


def _build_system(args):
    geometry = CircleGeometry(args.radius)
    branch = Branch.MINUS if args.branch == "minus" else Branch.PLUS
    if args.system == "oscillator":
        if args.omega is None:
            raise DomainError("--omega is required for the oscillator system")
        return oscillator.OscillatorSystem(geometry, omega=args.omega, k1=args.k1,
                                           branch=branch)
    if args.mu is None:
        raise DomainError("--mu is required for the coulomb system")
    return coulomb.CoulombSystem(geometry, mu=args.mu, k1=args.k1, branch=branch)


def _spectrum_records(args) -> list[dict]:
    if args.levels < 0:
        raise DomainError("--levels must be >= 0")
    system = _build_system(args)  # "both" builds the plus member
    if args.levels == 0:
        return []
    records = []
    for n, member, energy in spectrum(system, args.levels - 1):
        if args.branch not in ("both", member.branch.value):
            continue
        qn = coulomb.quantize(member, n) if args.system == "coulomb" else None
        records.append({"system": args.system, "n": n, "branch": member.branch.value,
                        "nu": qn.nu if qn else None, "sigma": qn.sigma if qn else None,
                        "energy": energy})
    return records


def _cmd_spectrum(args) -> int:
    return _emit(args, "spectrum", ["system", "n", "branch", "nu", "sigma", "energy"],
                 _spectrum_records(args))


def _cmd_wavefunction(args) -> int:
    if args.samples < 2:
        raise DomainError("--samples must be >= 2")
    system = _build_system(args)
    lo, hi = system.motion_domain
    step = (hi - lo) / args.samples
    phis = lo + (np.arange(args.samples) + 0.5) * step
    values = closed_forms(system).wavefunction(system, args.n, phis)
    return _emit(args, "wavefunction", ["phi", "re", "im"],
                 [{"phi": phi, "re": value, "im": 0.0}
                  for phi, value in zip(phis.tolist(), values.tolist())])


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
    except (CircleSqmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
