"""End-to-end command-line checks, run in process through main(), and the
runtime imports of fresh interpreters."""
from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np
import pytest

from punctorus import cli, lame, mc, modmap
from punctorus.tabular import csv_text
from punctorus.closedform import (
    LENGTH_THRESHOLD,
    length_branch_median,
    quad_cr_median,
    star_cdf,
    star_pdf,
)


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

    def test_json_honours_precision(self, capsys):
        argv = ["pdf", "--law", "quad_cr", "--at", "3", "--format", "json"]
        code, out, _ = run(capsys, argv + ["--precision", "3"])
        assert code == 0 and '"pdf": 0.193\n' in out
        assert json.loads(out) == [{"law": "quad_cr", "x": 3.0, "pdf": 0.193}]
        _, out, _ = run(capsys, argv)
        assert '"pdf": 0.19347710681024585\n' in out
        code, out, _ = run(capsys, ["sample", "--law", "length", "--n", "512", "--seed", "1",
                                    "--format", "json", "--precision", "4"])
        doc = json.loads(out)
        assert code == 0 and doc["n"] == 512
        for v in (doc["ks"], *doc["stats"].values()):
            assert v == float(format(v, ".4g"))

    @pytest.mark.parametrize("precision", ["0", "3", "6", "17"])
    def test_json_and_csv_write_the_same_floats(self, capsys, precision):
        # both formats write each float through tabular.float_text, so a
        # JSON number reads back as the same double as the CSV text
        argv = ["pdf", "--law", "length", "--from", "0.5", "--to", "1.0", "--step", "0.125",
                "--precision", precision]
        _, text, _ = run(capsys, argv)
        _, doc, _ = run(capsys, argv + ["--format", "json"])
        rows = [[float(v) for v in row] for row in list(csv.reader(io.StringIO(text)))[1:]]
        assert [[r["x"], r["pdf"]] for r in json.loads(doc)] == rows

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

    @pytest.mark.parametrize("cmd, fn", [("pdf", star_pdf), ("cdf", star_cdf)])
    def test_scalar_to_file(self, tmp_path, capsys, cmd, fn):
        path = tmp_path / "value.txt"
        code, out, _ = run(capsys, [cmd, "--law", "star", "--at", "1",
                                    "--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == format(fn(1.0), ".17g") + "\n"

    @pytest.mark.parametrize("law, at, want", [
        ("length", LENGTH_THRESHOLD, 1.0),
        ("length", length_branch_median(), 0.5),
        ("length_dual", LENGTH_THRESHOLD, 0.5),
    ])
    def test_length_cdfs(self, capsys, law, at, want):
        code, out, _ = run(capsys, ["cdf", "--law", law, "--at",
                                    format(at, ".17g")])
        assert code == 0
        assert float(out) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("cmd", ["pdf", "cdf"])
    def test_every_law_has_both_curves(self, cmd):
        parser = cli.build_parser()
        assert len(mc.CURVES) == 7
        for law in mc.CURVES:
            assert parser.parse_args([cmd, "--law", law, "--at", "1"]).law == law

    def test_teich_cdf_starts_at_zero(self, capsys):
        code, out, _ = run(capsys, ["cdf", "--law", "teich", "--at", "0"])
        assert code == 0
        assert float(out) == pytest.approx(0.0, abs=1e-9)

    def test_curves_vanish_left_of_the_support(self, capsys):
        code, out, _ = run(capsys, ["pdf", "--law", "length_dual", "--from", "0",
                                    "--to", "1", "--step", "0.5"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["0", "0"] and float(rows[2][1]) > 0.0
        code, out, _ = run(capsys, ["cdf", "--law", "modulus", "--at", "0"])
        assert code == 0
        assert float(out) == 0.0

    @pytest.mark.parametrize("grid", [
        ["--from", "0", "--to", "1"],
        ["--from", "0", "--to", "inf", "--step", "1"],
        ["--from=-inf", "--to", "0", "--step", "1"],
        ["--from", "0", "--to", "1", "--step", "nan"],
        ["--from", "nan", "--to", "1", "--step", "0.5"],
    ], ids=["missing-step", "inf-to", "inf-from", "nan-step", "nan-from"])
    def test_grid_needs_all_three_flags(self, capsys, grid):
        # all three present and finite
        code, _, err = run(capsys, ["pdf", "--law", "star", *grid])
        assert code == 2
        assert err.startswith("error:")

    def test_grid_too_large_to_allocate_is_a_usage_error(self, capsys):
        # 10**18 points: numpy refuses the array before allocating any of it
        code, out, err = run(capsys, ["pdf", "--law", "quad_cr", "--from", "0",
                                      "--to", "1e15", "--step", "1e-3"])
        assert code == 2 and out == ""
        assert err.startswith("error: request too large") and err.count("\n") == 1


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

    def test_sample_too_large_to_allocate_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["sample", "--law", "star", "--n", str(10**18)])
        assert code == 2 and out == ""
        assert err.startswith("error: request too large") and err.count("\n") == 1

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

    def test_bad_seed_env_reaches_only_sample(self, capsys, monkeypatch):
        # the variable is the default of sample --seed alone, converted
        # only when sample runs without --seed
        want = run(capsys, ["pdf", "--law", "star", "--at", "1"])
        monkeypatch.setenv("PUNCTORUS_SEED", "x")
        assert run(capsys, ["pdf", "--law", "star", "--at", "1"]) == want
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--law", "star", "--n", "5"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--seed" in err and "Traceback" not in err
        code, out, _ = run(capsys, ["sample", "--law", "star", "--n", "5", "--seed", "5"])
        assert code == 0 and out

    def test_seed_out_of_range_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["sample", "--law", "star", "--n", "5", "--seed", "-1"])
        assert code == 2 and out == ""
        assert err.startswith("error: seed = -1")


class TestSolverCommands:
    def test_cr_map_single_modulus(self, capsys):
        code, out, _ = run(capsys, ["cr-map", "--modulus", "1"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["tau", "lambda", "a1", "r1", "a2", "r2", "cross_ratio",
                           "modulus", "tangency_residual", "wronskian_drift"]
        rec = dict(zip(rows[0], map(float, rows[1])))
        assert rec["cross_ratio"] == pytest.approx(2.0, abs=1e-6)
        assert rec["tau"] == 1.0
        assert rec["modulus"] == 1.0

    @pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
    def test_cr_map_modulus_is_the_solve_at_its_reciprocal(self, capsys, cr_table, m):
        # m = 1/tau on both sides of the square; below 1 the solve is
        # the torus of modulus m itself, not of 1/m
        code, out, _ = run(capsys, ["cr-map", "--modulus", repr(m)])
        assert code == 0
        assert run(capsys, ["accessory", "--tau", repr(1.0 / m)]) == (0, out, "")
        rec = dict(zip(*csv.reader(io.StringIO(out))))
        assert float(rec["modulus"]) == m
        assert float(rec["cross_ratio"]) == pytest.approx(
            modmap.cr_of_modulus(m, cr_table), rel=1e-9)

    def test_cr_map_modulus_past_the_solver_range_is_a_solver_failure(self, capsys):
        code, out, err = run(capsys, ["cr-map", "--modulus", "0.1"])
        assert code == 3 and out == ""
        assert json.loads(err)["diagnostics"]["tau"] == 10.0

    def test_accessory_json(self, capsys):
        code, out, _ = run(capsys, ["accessory", "--tau", "0.8",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["cross_ratio"] == pytest.approx(2.41174363, rel=1e-6)

    @pytest.fixture
    def stub_build(self, monkeypatch, cr_table):
        calls = []

        def build():
            calls.append("build")
            return cr_table

        monkeypatch.setattr(cli.modmap, "build_cr_table", build)
        return calls

    def test_cr_map_table_csv(self, capsys, stub_build, cr_table):
        code, out, _ = run(capsys, ["cr-map", "--table"])
        assert code == 0
        assert stub_build == ["build"]
        assert out == csv_text(*cr_table.rows())
        code, out, _ = run(capsys, ["cr-map", "--table", "--precision", "6"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][3] == format(cr_table.records[0]["cross_ratio"], ".6g")

    def test_cr_map_table_json_is_the_records(self, capsys, stub_build,
                                              cr_table):
        code, out, _ = run(capsys, ["cr-map", "--table", "--format", "json"])
        assert code == 0
        assert json.loads(out) == sorted(cr_table.records, key=lambda r: r["m"])

    def test_cr_map_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cr-map"])
        assert exc.value.code == 2
        assert "--modulus" in capsys.readouterr().err

    def test_cr_map_modes_are_exclusive(self, capsys, stub_build):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cr-map", "--modulus", "3", "--table"])
        assert exc.value.code == 2
        assert "not allowed with argument --modulus" in capsys.readouterr().err
        assert stub_build == []

    def test_cr_map_has_no_mmax(self, capsys, stub_build):
        # the last node is fixed at m = 50
        with pytest.raises(SystemExit) as exc:
            cli.main(["cr-map", "--table", "--mmax", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mmax" in capsys.readouterr().err
        assert stub_build == []

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        def boom(tau, bracket=None):
            raise lame.SolverFailure("no bracket", {"tau": tau})

        monkeypatch.setattr(cli.lame, "solve_accessory", boom)
        code, _, err = run(capsys, ["accessory", "--tau", "0.8"])
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "solver failure"
        assert doc["diagnostics"] == {"tau": 0.8}
        # a table build lets its first node's failure through
        code, out, err = run(capsys, ["cr-map", "--table"])
        assert code == 3 and out == ""
        assert json.loads(err)["diagnostics"] == {"tau": 1.0}


class TestTeichAndQuasimobius:
    def test_stats_row(self, capsys, cr_table):
        code, out, _ = run(capsys, ["teich", "--stats"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["mean", "median", "sd"]
        mean, median, sd = map(float, rows[1])
        want = modmap.summary_stats(cr_table)
        assert (mean, median, sd) == pytest.approx(want, rel=1e-9)

    def test_default_density_grid(self, capsys):
        code, out, _ = run(capsys, ["teich"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 402
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(4.0, abs=1e-9)

    def test_quasimobius_row(self, capsys):
        code, out, _ = run(capsys, ["quasimobius", "--src", "3", "--dst", "3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["src_cr", "dst_cr", "K"]
        assert float(rows[1][2]) == 1.0

    def test_quasimobius_domain_error(self, capsys):
        code, _, err = run(capsys, ["quasimobius", "--src", "1.9",
                                    "--dst", "3"])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("src", ["nan", "inf"])
    def test_quasimobius_non_finite_is_a_usage_error(self, capsys, src):
        code, out, err = run(capsys, ["quasimobius", "--src", src, "--dst", "3"])
        assert code == 2 and out == ""
        assert err == "error: cross ratios must be finite and at least 2\n"


class TestVerifyCommand:
    def test_quick_run_is_nominal(self, capsys):
        code, out, _ = run(capsys, ["verify", "--quick"])
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

    @pytest.mark.parametrize("argv", [
        ["teich", "--pdf"],
        ["verify", "--out", "report.txt"],
        ["verify", "--format", "json"],
        ["verify", "--seed", "1"],
        ["verify", "--precision", "6"],
        ["pdf", "--law", "star", "--at", "1", "--seed", "1"],
        ["cdf", "--law", "star", "--at", "1", "--seed", "1"],
        ["accessory", "--tau", "0.8", "--seed", "1"],
        ["cr-map", "--modulus", "3", "--seed", "1"],
        ["teich", "--stats", "--seed", "1"],
        ["quasimobius", "--src", "2", "--dst", "3", "--seed", "1"],
        ["cr-map", "--table", "--mmin", "2"],
        ["sample", "--law", "star", "--n", "10", "--workers", "2"],
        ["cr-map", "--table", "--points", "16"],
    ])
    def test_removed_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pdf", "--law", "star", "--at", "3", "--precision", "-1"],
        ["pdf", "--law", "star", "--at", "3", "--precision", "-1", "--format", "json"],
        ["sample", "--law", "star", "--n", "10", "--precision", "-2"],
        ["cdf", "--law", "star", "--at", "3", "--precision", "six"],
    ])
    def test_precision_must_count_digits(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --precision: need a whole number of digits" in captured.err

    def test_precision_is_capped_at_767_digits(self, capsys, monkeypatch, cr_table):
        # the exact decimal expansion of a double has at most 767 significant
        # digits (the largest subnormal's), and 'g' drops trailing zeros, so
        # any larger count writes the same bytes as 767
        tiny = float.fromhex("0x0.fffffffffffffp-1022")
        assert len(format(tiny, ".767g").split("e")[0].replace(".", "")) == 767
        assert format(tiny, ".767g") == format(tiny, ".1000000g")
        assert cli._digits("2147483647") == 767
        assert cli._digits("767") == 767 and cli._digits("766") == 766
        monkeypatch.setattr(cli.modmap, "build_cr_table", lambda: cr_table)
        for argv in (["pdf", "--law", "star", "--at", "1"],
                     ["cdf", "--law", "quad_cr", "--from", "2", "--to", "4", "--step", "0.5"],
                     ["cr-map", "--table"]):
            code, want, _ = run(capsys, argv + ["--precision", "767"])
            assert code == 0
            assert run(capsys, argv + ["--precision", "1000000"]) == (0, want, "")

    @pytest.mark.parametrize("argv, flag, value, code", [
        (["pdf", "--law", "star"], "--at", "-1e-3", 0),
        (["pdf", "--law", "teich"], "--at", "-inf", 0),
        (["teich"], "--at", "-1E-3", 0),
        (["cdf", "--law", "crossratio_full", "--to", "0", "--step", "500"], "--from", "-1e3", 0),
        (["pdf", "--law", "star", "--from", "-3e0", "--step", "1"], "--to", "-1e0", 0),
        (["pdf", "--law", "star", "--from", "0", "--to", "1"], "--step", "-1e-1", 2),
        (["accessory"], "--tau", "-1e-3", 2),
        (["cr-map"], "--modulus", "-1e3", 2),
        (["quasimobius", "--dst", "3"], "--src", "-1e1", 2),
        (["quasimobius", "--src", "3"], "--dst", "-inf", 2),
    ], ids=["at", "at-inf", "teich-at", "from", "to", "step", "tau", "modulus", "src", "dst"])
    def test_negative_float_tokens_are_values(self, capsys, argv, flag, value, code):
        # argparse reads only -N and -N.N as negative numbers; an exponent
        # or -inf in its own token was taken for an option
        want = run(capsys, argv + [f"{flag}={value}"])
        assert want[0] == code
        assert run(capsys, argv + [flag, value]) == want

    def test_negative_decimal_is_unchanged(self, capsys):
        assert run(capsys, ["pdf", "--law", "star", "--at", "-0.5"]) == (
            0, "0.25464790894703254\n", "")

    @pytest.mark.parametrize("token", ["-x", "--", "-", "-1e"])
    def test_other_dash_tokens_are_not_values(self, capsys, token):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pdf", "--law", "star", "--at", token])
        assert exc.value.code == 2
        assert "argument --at" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["pdf", "sample", "teich", "verify"])
    def test_help_names_the_units(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "Units:" in out
        assert "log of the extremal dilatation" in out or \
            "logarithm of the extremal dilatation" in out


class TestRuntimeImports:
    """numpy is the only third-party module any command loads; only the
    verify command loads verify and torusgroup."""

    @staticmethod
    def modules(run, *args):
        """stdout, and the full dotted name of every module imported."""
        proc = run("-X", "importtime", *args)
        lines = [ln for ln in proc.stderr.splitlines()
                 if ln.startswith("import time:") and not ln.endswith("imported package")]
        return proc.stdout, {ln.rsplit("|", 1)[1].strip() for ln in lines}

    @classmethod
    def imported(cls, run, *args):
        """stdout, and the top-level names of every module imported."""
        out, mods = cls.modules(run, *args)
        return out, {m.split(".")[0] for m in mods}

    def test_package_import_leaves_scipy_out(self, fresh_python):
        _, mods = self.imported(fresh_python, "-c", "import punctorus, punctorus.cli")
        assert "numpy" in mods and "punctorus" in mods
        assert "scipy" not in mods

    def test_one_shot_pdf_leaves_scipy_out(self, fresh_python):
        out, mods = self.imported(fresh_python, "-m", "punctorus.cli", "pdf", "--law",
                                  "quad_cr", "--at", "3")
        assert float(out) == pytest.approx(float(np.asarray(mc.CURVES["quad_cr"][0](3.0))),
                                           rel=1e-15)
        assert "scipy" not in mods

    def test_one_shot_pdf_leaves_verify_and_torusgroup_out(self, fresh_python):
        out, mods = self.modules(fresh_python, "-m", "punctorus.cli", "pdf", "--law",
                                 "quad_cr", "--at", "3")
        assert float(out) == pytest.approx(float(np.asarray(mc.CURVES["quad_cr"][0](3.0))),
                                           rel=1e-15)
        assert "punctorus.closedform" in mods
        assert not {"punctorus.verify", "punctorus.torusgroup"} & mods

    def test_verify_loads_only_numpy_outside_the_standard_library(self, fresh_python):
        # the baseline holds the interpreter's site hooks and the names the
        # standard library only tries (pickle's Jython probe, org.python)
        _, baseline = self.imported(fresh_python, "-c", "import numpy")
        out, mods = self.imported(fresh_python, "-m", "punctorus.cli", "verify", "--quick")
        assert "09a-teich-median" in out and "numpy" in mods
        assert mods - baseline - set(sys.stdlib_module_names) == {"punctorus"}
