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
import dataclasses
import functools
import json
import operator
import os
import sys
import tempfile
from itertools import chain

import numpy as np

from . import coulomb, oscillator
from .errors import CircleSqmError, DomainError
from .numerics.validate import SUITE_NAMES, ValidationReport, run_suite
from .systems import Branch, CircleGeometry, closed_forms, spectrum

_FLOAT = "%.17g"  # every float printed, in JSON and CSV alike


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
        tmp_path = None
    except OSError as exc:  # name the target, not the temp file removed below
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _needs_quotes(text: str) -> bool:
    """Whether ``text`` holds a comma, a double quote, CR or LF, which RFC 4180 quotes."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _json_array(values) -> str:
    """A tuple of floats as the indented JSON array of a record field."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(_FLOAT % value for value in values) + "\n      ]"


def _emit(args, kind: str, header: tuple[str, ...], rows, key: str = "records",
          **envelope) -> int:
    """Write ``rows``, tuples in ``header`` order, as CSV or as the JSON payload of
    ``kind``: its ``envelope`` fields, then the records under ``key``.

    One text template holds each cell after its column's label: a float is a
    ``%.17g`` slot, a tuple of floats its array text, any other cell its JSON or
    CSV text with ``%`` doubled (None is ``null`` or empty), so that a single
    ``%`` pass formats every float cell; a CSV cell that :func:`_needs_quotes` is
    quoted.  A row's first label ends the row before it; ``first`` stands in for
    it on the first row."""
    cells = list(chain.from_iterable(rows))
    if args.format == "json":  # header names are plain words, free of %
        fields = {"schema": "circle-sqm/1", "kind": kind, **envelope}
        head = "{\n" + "".join(f"  {json.dumps(name)}: {json.dumps(value)},\n"
                               for name, value in fields.items()) + f"  {json.dumps(key)}: "
        keys = [f"      {json.dumps(name)}: " for name in header]
        labels = ["\n    },\n    {\n" + keys[0], *(",\n" + name for name in keys[1:])]
        empty, first, last, tail, render, none = ("[]", "[\n    {\n" + keys[0], "\n    }\n  ]",
                                                  "\n}\n", json.dumps, "null")
    else:
        head, empty, tail, render, none = ",".join(header), "", "\r\n", str, ""
        labels, first, last = ["\r\n"] + [","] * (len(header) - 1), "\r\n", ""
    template = [None] * (2 * len(cells))
    template[::2] = labels * (len(cells) // len(header))
    template[1::2] = [_FLOAT if isinstance(cell, float) else none if cell is None
                      else _json_array(cell) if isinstance(cell, tuple)
                      else render(cell).replace("%", "%%") for cell in cells]
    if args.format == "csv" and _needs_quotes("".join(template[1::2])):  # quote as RFC 4180
        template[1::2] = ['"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text
                          for text in template[1::2]]
    floats = tuple(cell for cell in cells if isinstance(cell, float))
    body = first + "".join(template[1:]) % floats + last if cells else empty
    _write_output(head + body + tail, args.output)
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


def _spectrum_rows(args) -> list[tuple]:
    if args.levels < 0:
        raise DomainError("--levels must be >= 0")
    system = _build_system(args)  # "both" builds the plus member
    if args.levels == 0:
        return []
    rows = []
    for n, member, energy in spectrum(system, args.levels - 1):
        if args.branch not in ("both", member.branch.value):
            continue
        qn = coulomb.quantize(member, n) if args.system == "coulomb" else None
        rows.append((args.system, n, member.branch.value, qn.nu if qn else None,
                     qn.sigma if qn else None, energy))
    return rows


def _cmd_spectrum(args) -> int:
    return _emit(args, "spectrum", ("system", "n", "branch", "nu", "sigma", "energy"),
                 _spectrum_rows(args))


def _cmd_wavefunction(args) -> int:
    if args.samples < 2:
        raise DomainError("--samples must be >= 2")
    system = _build_system(args)
    lo, hi = system.motion_domain
    step = (hi - lo) / args.samples
    phis = lo + (np.arange(args.samples) + 0.5) * step
    values = closed_forms(system).wavefunction(system, args.n, phis)
    return _emit(args, "wavefunction", ("phi", "re", "im"),
                 zip(phis.tolist(), values.tolist(), [0.0] * args.samples))


def _cmd_validate(args) -> int:
    reports = run_suite(args.suite)
    passed = all(report.passed for report in reports)
    header = tuple(field.name for field in dataclasses.fields(ValidationReport))
    _emit(args, "validation", header, map(operator.attrgetter(*header), reports),
          key="reports", suite=args.suite, passed=passed)
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


@functools.cache  # built on first use, then shared by every call in the process
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
    p_val.set_defaults(func=_cmd_validate, format="json")  # reports are JSON only
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircleSqmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
