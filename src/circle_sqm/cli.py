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
import math
import operator
import os
import sys
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import coulomb, oscillator
from .errors import CircleSqmError, DomainError
from .numerics.validate import SUITE_NAMES, ValidationReport, run_suite
from .systems import (Branch, CircleGeometry, closed_forms, half_offset_grid, level_index,
                      spectrum)

_FLOAT = "%.17g"  # every float printed, but a NaN or an infinity in JSON
_JSON_LITERALS = {None: "null", True: "true", False: "false"}
_CSV_LITERALS = {None: "", True: "True", False: "False"}


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


def _csv_text(text: str) -> str:
    """A str's CSV text, quoted per RFC 4180 if it holds a comma, a double quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _slots(cells, json_format: bool) -> tuple[list, list]:
    """Each cell's slot text and the values it gives the ``%`` pass: ``%.17g`` and a
    float, ``%d`` and an int, ``%s`` and a str's JSON or CSV text, the literal text of
    None and of a bool, and in JSON a tuple's indented array of its floats' slots.  JSON
    spells a NaN or infinite float ``NaN``, ``Infinity`` or ``-Infinity``, as
    ``json.loads`` reads it; CSV keeps ``nan`` and ``inf``.  Other cells raise TypeError."""
    text, literals = ((encode_basestring_ascii, _JSON_LITERALS) if json_format
                      else (_csv_text, _CSV_LITERALS))
    slots, values = [], []
    slot, value = slots.append, values.append
    for cell in cells:
        kind = type(cell)
        if kind is float and (not json_format or cell - cell == 0.0):  # NaN and inf fail
            slot(_FLOAT)
            value(cell)
        elif kind is int:
            slot("%d")
            value(cell)
        elif kind is str:
            slot("%s")
            value(text(cell))
        elif cell is None or kind is bool:
            slot(literals[cell])
        elif json_format and kind is float:
            slot(json.dumps(cell))
        elif json_format and kind is tuple:  # a NaN or an inf makes the sum non-finite
            items, floats = (([_FLOAT] * len(cell), cell) if math.isfinite(sum(cell))
                             else _slots(cell, True))
            slot("[\n        " + ",\n        ".join(items) + "\n      ]" if cell else "[]")
            values.extend(floats)
        else:
            raise TypeError(f"no {'JSON' if json_format else 'CSV'} cell for {kind.__name__}")
    return slots, values


def _emit(args, kind: str, header: tuple[str, ...], rows, key: str = "records",
          **envelope) -> int:
    """Write ``rows``, tuples in ``header`` order or a 2-D float64 array, as CSV or as the
    JSON payload of ``kind``: its ``envelope`` fields, then the records under ``key``.

    A single ``%`` pass formats every record.  Its template holds each cell's slot text
    (:func:`_slots`) after its column's label; a row's first label ends the row before
    it, and ``first`` stands in for it on the first row.  An array's rows share one row
    text, in which a column of +0.0 alone is the literal ``0``, unless NaN or inf in a
    JSON array sends its cells through :func:`_slots`."""
    json_format = args.format == "json"
    if json_format:
        fields = {"schema": "circle-sqm/1", "kind": kind, **envelope}
        head = "{\n" + "".join(f"  {json.dumps(name)}: {json.dumps(value)},\n"
                               for name, value in fields.items()) + f"  {json.dumps(key)}: "
        names = [f"      {encode_basestring_ascii(name)}: " for name in header]  # free of %
        labels = ["\n    },\n    {\n" + names[0], *(",\n" + name for name in names[1:])]
        first, last, empty, tail = "[\n    {\n" + names[0], "\n    }\n  ]", "[]", "\n}\n"
    else:
        head, empty, tail = ",".join(header), "", "\r\n"
        labels, first, last = ["\r\n"] + [","] * (len(header) - 1), "\r\n", ""
    array = isinstance(rows, np.ndarray) and rows.dtype == np.float64
    if array and (not json_format or np.isfinite(rows).all()):
        zero = ~rows.view(np.int64).any(axis=0)  # columns of +0.0 alone: all bits clear
        template = "".join(label + ("0" if z else _FLOAT)  # "0" is their %.17g
                           for label, z in zip(labels, zero.tolist())) * len(rows)
        values = rows[:, ~zero].ravel().tolist()
    else:
        slots, values = _slots(chain.from_iterable(rows.tolist() if array else rows), json_format)
        template = [None] * (2 * len(slots))  # each row's labels, each followed by its slot
        template[::2], template[1::2] = labels * (len(slots) // len(labels)), slots
        template = "".join(template)
    body = first + template[len(labels[0]):] % tuple(values) + last if template else empty
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
    levels = level_index(args.levels, 0, "--levels")
    system = _build_system(args)  # "both" builds the plus member
    if levels == 0:
        return []
    rows = []
    for n, member, energy in spectrum(system, levels - 1):
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
    system = _build_system(args)
    phis, _ = half_offset_grid(system.motion_domain, args.samples, 2, "--samples")
    values = closed_forms(system).wavefunction(system, args.n, phis)
    return _emit(args, "wavefunction", ("phi", "re", "im"),
                 np.column_stack((phis, values, np.zeros(phis.size))))


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
