"""End-to-end command-line checks, run in process through main()."""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from punctorus import cli, lame, modmap
from punctorus.closedform import quad_cr_median, star_pdf


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurveCommands:
    def test_pdf_scalar_is_bare(self, capsys):
        code, out, _ = run(capsys, ["pdf", "--law", "quad_cr", "--at", "2"])
        assert code == 0
        assert out.strip() == format(6.0 * math.log(2.0) / math.pi**2, ".17g")

    def test_pdf_precision_flag(self, capsys):
        code, out, _ = run(capsys, ["pdf", "--law", "quad_cr", "--at", "2",
                                    "--precision", "6"])
        assert code == 0
        assert out.strip() == "0.421383"

    def test_pdf_grid_csv(self, capsys):
        code, out, _ = run(capsys, ["pdf", "--law", "star", "--from", "0",
                                    "--to", "1", "--step", "0.25"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "pdf"]
        assert len(rows) == 6
        for x_s, y_s in rows[1:]:
            assert float(y_s) == pytest.approx(star_pdf(float(x_s)),
                                               rel=1e-15)

    def test_pdf_grid_json_to_file(self, tmp_path, capsys):
        path = tmp_path / "curve.json"
        code, out, _ = run(capsys, ["pdf", "--law", "length", "--from", "0.5",
                                    "--to", "1.0", "--step", "0.5",
                                    "--format", "json", "--out", str(path)])
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert [d["x"] for d in doc] == [0.5, 1.0]
        assert all(set(d) == {"x", "pdf"} for d in doc)

    def test_cdf_at_the_median(self, capsys):
        code, out, _ = run(capsys, ["cdf", "--law", "quad_cr", "--at",
                                    format(quad_cr_median(), ".17g")])
        assert code == 0
        assert float(out) == pytest.approx(0.5, abs=1e-12)

    def test_teich_cdf_starts_at_zero(self, capsys, cr_table):
        code, out, _ = run(capsys, ["cdf", "--law", "teich", "--at", "0"])
        assert code == 0
        assert float(out) == pytest.approx(0.0, abs=1e-9)

    def test_grid_needs_all_three_flags(self, capsys):
        code, _, err = run(capsys, ["pdf", "--law", "star", "--from", "0",
                                    "--to", "1"])
        assert code == 2
        assert err.startswith("error:")


class TestSampleCommand:
    def test_csv_histogram(self, capsys):
        code, out, _ = run(capsys, ["sample", "--law", "star", "--n", "4096",
                                    "--seed", "11"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["bin_left", "bin_right", "count", "density"]
        assert len(rows) == 201
        assert sum(int(r[2]) for r in rows[1:]) == 4096

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, ["sample", "--law", "quad_cr", "--n",
                                    "8192", "--seed", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["law"] == "quad_cr"
        assert doc["n"] == 8192
        assert doc["seed"] == 3
        assert doc["stats"]["median"] == pytest.approx(4.688, abs=0.5)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        code, out, _ = run(capsys, ["sample", "--law", "length", "--n", "512",
                                    "--seed", "1", "--format", "json",
                                    "--out", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["n"] == 512

    def test_stdout_and_out_file_agree(self, tmp_path, capsysbinary):
        argv = ["sample", "--law", "star", "--n", "4096", "--seed", "11",
                "--precision", "6"]
        assert cli.main(argv) == 0
        stdout = capsysbinary.readouterr().out
        path = tmp_path / "s.csv"
        assert cli.main(argv + ["--out", str(path)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert path.read_bytes() == stdout

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("PUNCTORUS_SEED", "777")
        args = cli.build_parser().parse_args(
            ["sample", "--law", "star", "--n", "4"])
        assert args.seed == 777

    def test_seed_flag_wins(self, monkeypatch):
        monkeypatch.setenv("PUNCTORUS_SEED", "777")
        args = cli.build_parser().parse_args(
            ["sample", "--law", "star", "--n", "4", "--seed", "5"])
        assert args.seed == 5


class TestSolverCommands:
    def test_cr_map_single_modulus(self, capsys):
        code, out, _ = run(capsys, ["cr-map", "--modulus", "1"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(cli._RECORD_COLS)
        rec = dict(zip(rows[0], map(float, rows[1])))
        assert rec["cross_ratio"] == pytest.approx(2.0, abs=1e-6)
        assert rec["tau"] == 1.0
        assert rec["modulus"] == 1.0

    def test_accessory_json(self, capsys):
        code, out, _ = run(capsys, ["accessory", "--tau", "0.8",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["cross_ratio"] == pytest.approx(2.41174363, rel=1e-6)

    def test_cr_map_requires_a_mode(self, capsys):
        code, _, err = run(capsys, ["cr-map"])
        assert code == 2
        assert "modulus" in err

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        def boom(tau, bracket=None, rtol=1e-11, scan_rtol=1e-7):
            raise lame.SolverFailure("no bracket", {"tau": tau})

        monkeypatch.setattr(cli.lame, "solve_accessory", boom)
        code, _, err = run(capsys, ["accessory", "--tau", "0.8"])
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "solver failure"
        assert doc["diagnostics"] == {"tau": 0.8}


class TestTeichAndQuasimobius:
    def test_stats_row(self, capsys, cr_table):
        code, out, _ = run(capsys, ["teich", "--stats"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["mean", "median", "sd"]
        mean, median, sd = map(float, rows[1])
        want = modmap.summary_stats(cr_table)
        assert (mean, median, sd) == pytest.approx(want, rel=1e-9)

    def test_default_density_grid(self, capsys, cr_table):
        code, out, _ = run(capsys, ["teich"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 402
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(4.0, abs=1e-9)

    def test_quasimobius_row(self, capsys, cr_table):
        code, out, _ = run(capsys, ["quasimobius", "--src", "3", "--dst", "3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["src_cr", "dst_cr", "K"]
        assert float(rows[1][2]) == 1.0

    def test_quasimobius_domain_error(self, capsys, cr_table):
        code, _, err = run(capsys, ["quasimobius", "--src", "1.9",
                                    "--dst", "3"])
        assert code == 2
        assert err.startswith("error:")


class TestVerifyCommand:
    def test_quick_run_is_nominal(self, capsys, cr_table):
        code, out, _ = run(capsys, ["verify", "--quick"])
        assert modmap.default_table() is cr_table
        assert code == 0
        assert "(expected FAIL)" in out
        assert "** NOT NOMINAL **" not in out
        assert out.rstrip().endswith("result: nominal")


class TestParserSurface:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_law_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pdf", "--law", "gaussian", "--at", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub", ["pdf", "sample", "teich", "verify"])
    def test_help_names_the_units(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "Units:" in out
        assert "log of the extremal dilatation" in out or \
            "logarithm of the extremal dilatation" in out
