"""CLI surface: flag handling, exit codes, file formats, determinism, golden
files, the one-pass record writer against the value-by-value oracle, and the
parser shared by every call."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_sqm import Branch, CircleGeometry
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.cli import _emit, _json_text, build_parser, main
from circle_sqm.systems import spectrum

from oracles import json_text, records_text

GOLDEN = Path(__file__).parent / "golden"


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
    ], ids=["coulomb-constant-overflow", "coulomb-sigma-inf", "coulomb-values-nan",
            "oscillator-values-nan"])
    def test_non_finite_wavefunction_exits_2(self, capsys, system_args, quantity):
        code, out, err = run_cli(["wavefunction", *system_args], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and quantity in err

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

    def test_golden_spectrum(self, capsys, tmp_path):
        out_path = tmp_path / "spectrum.json"
        code, _, _ = run_cli(
            ["spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--levels", "3", "--output", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "spectrum_coulomb.json").read_bytes()

    def test_golden_wavefunction(self, capsys, tmp_path):
        out_path = tmp_path / "wave.csv"
        code, _, _ = run_cli(
            ["wavefunction", "--system", "oscillator", "--omega", "1", "--radius",
             "1", "--k1", "1.5", "--n", "2", "--samples", "8", "--format", "csv",
             "--output", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "wavefunction_oscillator.csv").read_bytes()

    def test_golden_wavefunction_json(self, capsys, tmp_path):
        out_path = tmp_path / "wave.json"
        code, _, _ = run_cli(
            ["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1",
             "--k1", "1", "--n", "2", "--samples", "8", "--output", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "wavefunction_coulomb.json").read_bytes()

    def test_golden_spectrum_csv(self, capsys, tmp_path):
        out_path = tmp_path / "spectrum.csv"
        code, _, _ = run_cli(
            ["spectrum", "--system", "oscillator", "--omega", "1", "--radius", "1",
             "--k1", "0.3", "--branch", "both", "--levels", "3", "--format", "csv",
             "--output", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "spectrum_oscillator.csv").read_bytes()

    def test_golden_validation_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["validate", "--suite", "specfun", "--output", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "validate_specfun.json").read_bytes()

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "circle_sqm.cli", "spectrum", "--system",
             "coulomb", "--mu", "1", "--radius", "1", "--k1", "1", "--levels", "1"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["records"][0]["energy"] == 0


HEADERS = {"spectrum": ("system", "n", "branch", "nu", "sigma", "energy"),
           "wavefunction": ("phi", "re", "im")}
CELLS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]),
    st.floats(), st.integers(), st.none(),
    st.text(st.sampled_from('%"\\,{}aé€\u2028\n')), st.text())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(fmt=st.sampled_from(["json", "csv"]), kind=st.sampled_from(sorted(HEADERS)),
       data=st.data())
@example(fmt="json", kind="spectrum", data=None)
@example(fmt="csv", kind="wavefunction", data=None)
def test_emit_matches_value_by_value_oracle(fmt, kind, data):
    header = HEADERS[kind]
    rows = [] if data is None else data.draw(st.lists(st.tuples(*[CELLS] * len(header))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _emit(argparse.Namespace(format=fmt, output=None), kind, header, rows) == 0
    assert out.getvalue() == records_text(fmt, kind, list(header),
                                          [dict(zip(header, row)) for row in rows])


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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(payload=st.recursive(
    CELLS | st.booleans(),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner)))
def test_json_text_matches_value_by_value_oracle(payload):
    assert _json_text(payload) == json_text(payload)


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
