"""CLI surface: flag handling, exit codes, file formats, determinism and
golden files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from circle_sqm import Branch, CircleGeometry
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm.cli import main

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
        expected = {(r[0], r[1].value): r[2] for r in osc.spectrum(system, 3)}
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
