"""CLI surface: flag handling, exit codes, file formats, determinism, the
one-pass writer against the value-by-value oracle for records and validation
payloads and read back through ``json.loads`` and ``csv.reader``, and the parser
shared by every call.  The golden files are checked
by acceptance criterion 10."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_sqm import Branch, CircleGeometry, cli
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.cli import _emit, build_parser, main
from circle_sqm.numerics.validate import SUITE_NAMES, ValidationReport
from circle_sqm.systems import spectrum

from oracles import json_text, records_text


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_coulomb_case_i_values(self, capsys, tmp_path):
        out_path = tmp_path / "spec.json"
        code, _, _ = run_cli(
            ["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--levels", "3", "--output", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "circle-sqm/1"
        energies = [record["energy"] for record in payload["records"]]
        assert energies == pytest.approx([0.0, 1.875, 4.0 + 4.0 / 9.0])

    def test_energies_match_library_to_zero_ulp(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--system", "oscillator", "--omega", "1.25", "--radius",
             "0.8", "--k1", "0.5", "--levels", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        system = osc.OscillatorSystem(CircleGeometry(0.8), 1.25, 0.5)
        expected = {(r[0], r[1].branch.value): r[2] for r in spectrum(system, 3)}
        for record in payload["records"]:
            assert record["energy"] == expected[(record["n"], record["branch"])]

    def test_zero_levels(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--levels", "0"], capsys)
        assert code == 0
        assert json.loads(out)["records"] == []

    def test_single_branch_rows(self, capsys):
        system = osc.OscillatorSystem(CircleGeometry(1.0), 1.0, 0.3)
        for branch in (Branch.MINUS, Branch.PLUS):
            code, out, _ = run_cli(
                ["spectrum", "--system", "oscillator", "--omega", "1", "--radius", "1",
                 "--k1", "0.3", "--branch", branch.value, "--levels", "4"], capsys)
            assert code == 0
            records = json.loads(out)["records"]
            member = osc.OscillatorSystem(CircleGeometry(1.0), 1.0, 0.3, branch)
            assert [(r["n"], r["branch"]) for r in records] == [
                (n, branch.value) for n in range(4)]
            energies = [r["energy"] for r in records]
            assert energies == sorted(energies)
            assert energies == [osc.energy_level(member, n) for n in range(4)]

    def test_branch_rule_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--system", "oscillator", "--omega", "1", "--radius", "1",
             "--k1", "0.75", "--branch", "minus", "--levels", "3"], capsys)
        assert code == 2
        assert "minus branch" in err

    def test_invalid_radius_exits_2(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "-1",
             "--k1", "1", "--levels", "3"], capsys)
        assert code == 2
        assert "radius" in err

    def test_missing_coupling_exits_2(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--system", "coulomb", "--radius", "1", "--k1", "1",
             "--levels", "3"], capsys)
        assert code == 2
        assert "--mu" in err

    @pytest.mark.parametrize("system_args", [
        ("--system", "coulomb", "--mu", "1e200", "--radius", "1"),
        ("--system", "oscillator", "--omega", "1e200", "--radius", "1"),
        ("--system", "coulomb", "--mu", "1", "--radius", "1e-200"),
        ("--system", "coulomb", "--mu", "1", "--radius", "1e-160"),
        ("--system", "coulomb", "--mu", "1", "--radius", "1e160"),
    ], ids=["coulomb-mu-overflow", "oscillator-k0-overflow", "coulomb-radius-underflow",
            "coulomb-energy-inf", "coulomb-radius-overflow"])
    def test_non_finite_energy_exits_2(self, capsys, system_args):
        code, out, err = run_cli(
            ["spectrum", *system_args, "--k1", "1", "--levels", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "0.5", "--levels", "2", "--format", "csv"], capsys)
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "system,n,branch,nu,sigma,energy"
        assert len(lines) == 6  # header + 2 levels x 2 branches + trailing empty
        assert lines[-1] == ""

    def test_coulomb_records_carry_nu_sigma(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--system", "coulomb", "--mu", "2", "--radius", "1",
             "--k1", "0.5", "--levels", "1"], capsys)
        assert code == 0
        records = json.loads(out)["records"]
        by_branch = {record["branch"]: record for record in records}
        assert by_branch["minus"]["nu"] == 0.25
        assert by_branch["minus"]["sigma"] == pytest.approx(8.0)
        assert by_branch["plus"]["nu"] == 0.75


class TestWavefunctionCommand:
    def test_grid_layout_and_row_count(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--n", "0", "--samples", "5"], capsys)
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 5
        step = math.pi / 5
        assert records[0]["phi"] == pytest.approx(step / 2)
        assert records[-1]["phi"] == pytest.approx(math.pi - step / 2)

    def test_oscillator_imag_identically_zero(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", "--system", "oscillator", "--omega", "1", "--radius",
             "1", "--k1", "1.5", "--n", "1", "--samples", "9"], capsys)
        assert code == 0
        assert all(record["im"] == 0 for record in json.loads(out)["records"])

    def test_coulomb_ground_state_imag_zero(self, capsys):
        # n = 0 kills the oscillatory exponent, leaving a real envelope
        code, out, _ = run_cli(
            ["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--n", "0", "--samples", "6"], capsys)
        assert code == 0
        assert all(record["im"] == 0 for record in json.loads(out)["records"])

    def test_sample_count_validated(self, capsys):
        code, _, err = run_cli(
            ["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--n", "0", "--samples", "1"], capsys)
        assert code == 2
        assert "--samples" in err

    def test_negative_level_index_exits_2(self, capsys):
        code, out, err = run_cli(
            ["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--n", "-1", "--samples", "4"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: level index must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("system_args, quantity", [
        (("--system", "coulomb", "--mu", "1e200", "--radius", "1", "--k1", "1", "--n", "0",
          "--samples", "2"), "norm_constant"),
        (("--system", "coulomb", "--mu", "1e300", "--radius", "1e10", "--k1", "1", "--n", "0",
          "--samples", "2"), "sigma"),
        (("--system", "coulomb", "--mu", "1e7", "--radius", "1", "--k1", "1", "--n", "100",
          "--samples", "5"), "wavefunction"),
        (("--system", "oscillator", "--omega", "1e6", "--radius", "1", "--k1", "1.5",
          "--n", "500", "--samples", "5"), "wavefunction"),
        # sigma = 600: it wrote 0 at phi = 1.4399, where the state is 2.77e-3, and exited 0
        (("--system", "coulomb", "--mu", "300600", "--radius", "1", "--k1", "1", "--n", "500",
          "--samples", "12", "--format", "csv"), "underflows"),
    ], ids=["coulomb-constant-overflow", "coulomb-sigma-inf", "coulomb-values-nan",
            "oscillator-values-nan", "coulomb-decay-underflow"])
    def test_non_finite_wavefunction_exits_2(self, capsys, system_args, quantity):
        code, out, err = run_cli(["wavefunction", *system_args], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and quantity in err

    def test_values_match_library(self, capsys):
        import numpy as np

        code, out, _ = run_cli(
            ["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--n", "2", "--samples", "4"], capsys)
        assert code == 0
        records = json.loads(out)["records"]
        system = cou.CoulombSystem(CircleGeometry(1.0), 1.0, 1.0)
        values = cou.wavefunction(system, 2, np.array([r["phi"] for r in records]))
        for record, value in zip(records, values):
            assert record["re"] == value.real and record["im"] == value.imag


class TestValidateCommand:
    def test_specfun_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(["validate", "--suite", "specfun",
                              "--output", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert all(report["passed"] for report in payload["reports"])

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestDeterminismAndGoldens:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        args = ["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
                "--k1", "0.5", "--levels", "5"]
        first = run_cli(args + ["--output", str(tmp_path / "a.json")], capsys)
        second = run_cli(args + ["--output", str(tmp_path / "b.json")], capsys)
        assert first[0] == second[0] == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_no_temp_files_left_behind(self, capsys, tmp_path):
        run_cli(["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
                 "--k1", "1", "--levels", "2", "--output", str(tmp_path / "out.json")],
                capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    @pytest.mark.parametrize("target", ["", "missing/out.json"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        code, out, err = run_cli(
            ["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--levels", "2", "--output", str(tmp_path / target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / target) in err and ".circle-sqm-" not in err
        assert list(tmp_path.iterdir()) == []

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "circle_sqm.cli", "spectrum", "--system",
             "coulomb", "--mu", "1", "--radius", "1", "--k1", "1", "--levels", "1"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["records"][0]["energy"] == 0


HEADERS = {"spectrum": ("system", "n", "branch", "nu", "sigma", "energy"),
           "wavefunction": ("phi", "re", "im"),
           "validation": tuple(field.name for field in dataclasses.fields(ValidationReport))}
CELLS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]),
    st.floats(), st.integers(), st.none(),
    st.text(st.sampled_from('%"\\,{}aé€\u2028\n')), st.text())
# a validation report's cells: tuples of floats, bools, None and the record cells above
REPORT_CELLS = st.one_of(
    st.sampled_from([(), (math.nan,), (math.inf, -math.inf, -0.0)]),
    st.lists(st.floats()).map(tuple), st.booleans(), CELLS)
JOBS = [("json", "spectrum"), ("csv", "spectrum"), ("json", "wavefunction"),
        ("csv", "wavefunction"), ("json", "validation")]  # validation payloads are JSON only
# a wavefunction of the benchmark's largest size, as the float array the command writes
_PHI = (np.arange(5000) + 0.5) * (math.pi / 5000)
WAVEFUNCTION = np.column_stack((_PHI, np.sin(7.0 * _PHI) * np.exp(-_PHI), np.zeros(5000)))
# a spectrum whose nu and sigma cells alternate between None and floats from row to row
ALTERNATING = [("coulomb" if n % 3 else "oscillator", n, "plus", *((None, None) if n % 2
                else (0.5 + n, 1.0 / (n + 1.0))), (n + 0.25) ** 2 / 3.0) for n in range(60)]


@settings(max_examples=200)
@given(job=st.sampled_from(JOBS), data=st.data())
@example(job=("json", "spectrum"), data=None)
@example(job=("csv", "wavefunction"), data=None)
@example(job=("json", "validation"), data=None)
@example(job=("json", "wavefunction"), data=WAVEFUNCTION)
@example(job=("csv", "wavefunction"), data=[tuple(row) for row in WAVEFUNCTION.tolist()])
@example(job=("json", "spectrum"), data=ALTERNATING)
@example(job=("csv", "wavefunction"), data=np.array([[0.0, -0.0, 1.5], [0.0, -0.0, -0.0]]))
@example(job=("json", "wavefunction"), data=np.empty((0, 3)))
@example(job=("csv", "spectrum"), data=ALTERNATING)
def test_emit_matches_value_by_value_oracle(job, data):
    fmt, kind = job
    header = HEADERS[kind]
    key, envelope, rows = emitted_payload(kind, data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _emit(argparse.Namespace(format=fmt, output=None), kind, header, rows,
                     key, **envelope) == 0
    records = rows.tolist() if isinstance(rows, np.ndarray) else rows
    assert out.getvalue() == records_text(fmt, kind, list(header),
                                          [dict(zip(header, row)) for row in records],
                                          key, **envelope)


def emitted_payload(kind, data):
    """The records key, the envelope and the rows of a payload of ``kind``: ``data``
    draws them, or is the rows of an example (None: no rows)."""
    key, envelope, cells = "records", {}, CELLS
    drawn = data is not None and not isinstance(data, (list, np.ndarray))
    if kind == "validation":
        key, cells = "reports", REPORT_CELLS
        envelope = data.draw(st.fixed_dictionaries(
            {"suite": st.text(), "passed": st.booleans()})) if drawn else {"suite": "all",
                                                                          "passed": True}
    rows = data.draw(st.lists(st.tuples(*[cells] * len(HEADERS[kind])))) if drawn else (
        [] if data is None else data)
    return key, envelope, rows


class JsonNumber(str):
    """A JSON number's text as ``json.loads`` found it, told apart from a JSON string."""


def same_float(cell: float, value: float) -> bool:
    """Bit for bit, but any NaN matches any NaN: neither format keeps a NaN's sign."""
    return math.isnan(value) if math.isnan(cell) else (
        struct.pack("<d", cell) == struct.pack("<d", value))


def same_json_cell(cell, value) -> bool:
    """Whether ``value``, a JSON value read back with its numbers as :class:`JsonNumber`
    and NaN and the infinities as floats, is ``cell``."""
    if type(cell) is tuple:
        return type(value) is list and len(value) == len(cell) and all(
            map(same_json_cell, cell, value))
    if type(cell) is float:
        return type(value) in (JsonNumber, float) and same_float(cell, float(value))
    if type(cell) is int:
        return type(value) is JsonNumber and int(value) == cell
    return type(value) is type(cell) and value == cell  # a str, a bool or None


def assert_parses_back(fmt, kind, header, rows, text, key="records", **envelope):
    """``text`` parses back to ``rows``: JSON through ``json.loads``, CSV through
    ``csv.reader``, every float bit for bit and NaN as NaN."""
    if fmt == "json":
        payload = json.loads(text, parse_int=JsonNumber, parse_float=JsonNumber,
                             parse_constant=float)
        assert list(payload) == ["schema", "kind", *envelope, key]
        assert payload["schema"] == "circle-sqm/1" and payload["kind"] == kind
        assert all(payload[name] == value for name, value in envelope.items())
        assert [list(record) for record in payload[key]] == [list(header)] * len(rows)
        assert all(same_json_cell(cell, record[name]) for row, record in zip(rows, payload[key])
                   for name, cell in zip(header, row))
    else:
        table = list(csv.reader(io.StringIO(text, newline="")))
        assert table[0] == list(header) and len(table) == len(rows) + 1
        assert all(len(fields) == len(header) for fields in table[1:])
        assert all(same_float(cell, float(field)) if type(cell) is float
                   else field == ("" if cell is None else str(cell))
                   for row, fields in zip(rows, table[1:]) for cell, field in zip(row, fields))


# a wavefunction array holding NaN and both infinities, beside a column of +0.0
NON_FINITE = np.array([[0.5, math.nan, 0.0], [1.0, math.inf, 0.0], [1.5, -math.inf, 0.0]])


@settings(max_examples=200)
@given(job=st.sampled_from(JOBS), data=st.data())
@example(job=("json", "wavefunction"), data=WAVEFUNCTION)
@example(job=("json", "spectrum"), data=ALTERNATING)
@example(job=("csv", "spectrum"), data=ALTERNATING)
@example(job=("json", "wavefunction"), data=NON_FINITE)
@example(job=("csv", "wavefunction"), data=NON_FINITE)
@example(job=("json", "wavefunction"), data=np.array([[0.0, -0.0, 1.5], [0.0, -0.0, -0.0]]))
@example(job=("json", "validation"), data=[("c", (math.nan, -math.inf), (math.inf,), (), (-0.0,),
                                            math.nan, False, math.inf)])
@example(job=("json", "spectrum"), data=[("x", 10**30, "y", -math.inf, -0.0, 1e16)])
def test_emit_output_parses_back_to_its_cells(job, data):
    fmt, kind = job
    header = HEADERS[kind]
    key, envelope, rows = emitted_payload(kind, data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(format=fmt, output=None), kind, header, rows, key, **envelope)
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    assert_parses_back(fmt, kind, header, rows, out.getvalue(), key, **envelope)


def test_a_failing_contraction_report_parses_back(monkeypatch, capsys):
    # a shipped level 1e-9 too high falls below its flat limit at R = 1e4: the suite
    # fails, and its decay-rate report carries a NaN slope
    run_suite, written, exact = cli.run_suite, [], cou.energy_level
    monkeypatch.setattr(cou, "energy_level", lambda sys, n: exact(sys, n) * (1.0 + 1e-9))

    def recorded(name):
        written.append(run_suite(name))
        return written[-1]

    monkeypatch.setattr(cli, "run_suite", recorded)
    code, out, _ = run_cli(["validate", "--suite", "contraction"], capsys)
    [reports] = written
    assert code == 1
    assert any(report.convergence_rate is not None and math.isnan(report.convergence_rate)
               for report in reports)
    rows = [dataclasses.astuple(report) for report in reports]
    assert_parses_back("json", "validation", HEADERS["validation"], rows, out, "reports",
                       suite="contraction", passed=False)


@pytest.mark.parametrize("suite", [name for name in SUITE_NAMES if name != "all"])
def test_validate_writes_the_oracle_payload(monkeypatch, capsys, suite):
    run_suite, written = cli.run_suite, []

    def recorded(name):  # the reports the command writes, kept for the oracle
        written.append(run_suite(name))
        return written[-1]

    monkeypatch.setattr(cli, "run_suite", recorded)
    code, out, _ = run_cli(["validate", "--suite", suite], capsys)
    [reports] = written
    passed = all(report.passed for report in reports)
    payload = {"schema": "circle-sqm/1", "kind": "validation", "suite": suite,
               "passed": passed, "reports": [dataclasses.asdict(report) for report in reports]}
    assert code == (0 if passed else 1)
    assert out == json_text(payload) + "\n"


def test_csv_cells_holding_separators_are_quoted():
    cells = ("a,b", 7, 'say "hi"', None, "50%\r\nof it", -0.0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(format="csv", output=None), "spectrum", HEADERS["spectrum"],
              [cells, ("plain", 8, "", None, "\n", 0.5)])
    assert out.getvalue() == ('system,n,branch,nu,sigma,energy\r\n'
                              '"a,b",7,"say ""hi""",,"50%\r\nof it",-0\r\n'
                              'plain,8,,,"\n",0.5\r\n')
    assert list(csv.reader(io.StringIO(out.getvalue(), newline="")))[1] == [
        "a,b", "7", 'say "hi"', "", "50%\r\nof it", "-0"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_refuses_a_cell_it_has_no_slot_for(fmt, capsys):
    with pytest.raises(TypeError, match="list"):
        _emit(argparse.Namespace(format=fmt, output=None), "spectrum", HEADERS["spectrum"],
              [("oscillator", 0, "plus", None, None, [1.0])])
    assert capsys.readouterr().out == ""


def test_parser_is_shared_and_calls_do_not_leak(capsys):
    assert build_parser() is build_parser()
    spec = ["spectrum", "--system", "oscillator", "--omega", "1", "--radius", "1",
            "--k1", "0.3", "--levels", "2"]
    calls = [spec + ["--branch", "minus"], spec, spec + ["--format", "xml"],
             spec + ["--format", "csv"], spec]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out.encode(), captured.err.encode()))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0]
    for argv, got in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "circle_sqm.cli", *argv],
                               capture_output=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
