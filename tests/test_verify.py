"""The verification suite and the acceptance tests name the same clauses."""
from __future__ import annotations

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from punctorus import closedform as cf
from punctorus import verify


_ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _acceptance_tests() -> list[str]:
    tree = ast.parse(_ACCEPTANCE.read_text())
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]


def test_each_check_has_one_acceptance_test(verify_results):
    names = [r.name for r in verify_results]
    expected = ["test_criterion_" + name.replace("-", "_") for name in names]
    assert len(set(names)) == len(names)
    assert sorted(_acceptance_tests()) == sorted(expected)


def test_direct_curvature_meets_the_functional_equation(verify_results):
    # clause 08's CR''(1) from direct solves against a^2 - a from the series
    v = next(r.values for r in verify_results if r.name == "08-derivative-at-square")
    assert abs(v["cr2"] - (v["a"] ** 2 - v["a"])) < 1e-5


def test_quick_mode_keeps_the_checks(verify_results, cr_table):
    quick = verify.run_checks(quick=True, table=cr_table)
    assert [r.name for r in quick] == [r.name for r in verify_results]


def test_normalization_masses_match_adaptive_quadrature(verify_results):
    # clause 01's tanh-sinh masses against scipy's QUADPACK over the same
    # pieces; the two rules agree to about 2e-15 on every law
    masses = next(r.values for r in verify_results
                  if r.name == "01-pdf-normalization")["masses"]
    thr = cf.LENGTH_THRESHOLD
    pieces = {
        "full": (cf.crossratio_pdf, -np.inf, 0.0, 1.0, np.inf),
        "quad": (cf.quad_cr_pdf, 2.0, np.inf),
        "length": (cf.length_pdf, 0.0, thr),
        "dual": (cf.length_pdf_dual, 0.0, thr, np.inf),
        "star": (cf.star_pdf, -np.inf, np.inf),
    }
    assert sorted(masses) == sorted(pieces)
    for law, (pdf, *cuts) in pieces.items():
        want = sum(quad(pdf, a, b, limit=200)[0] for a, b in zip(cuts, cuts[1:]))
        assert masses[law] == pytest.approx(want, abs=1e-12), law


def test_acceptance_tests_restate_no_bound():
    # every bound is written once, in verify; the acceptance tests only
    # assert its verdicts.  The one numeric comparison left is clause
    # 07's budget for the session's table build, which verify cannot see
    found = []
    for top in ast.parse(_ACCEPTANCE.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Constant) and type(n.value) in (int, float)
                    for operand in (node.left, *node.comparators)
                    for n in ast.walk(operand)):
                found.append((getattr(top, "name", None), ast.unparse(node)))
    assert found == [("test_criterion_07_asymptotic_sandwich", "build_seconds < 180.0")]


@pytest.mark.parametrize("offset,failed", [(5.1e-4, ("median",)), (4.9e-4, ())])
def test_failed_names_the_bounds_that_failed(monkeypatch, offset, failed):
    # clause 02 bounds |median - 4.6883| <= 5e-4 and its time
    monkeypatch.setattr(cf, "quad_cr_median", lambda: 4.6883 + offset)
    [result] = verify._check_quad_median(False, None)
    assert result.failed == failed
    assert result.passed == (not failed) and result.nominal == (not failed)


def test_monte_carlo_clause_runs_one_config_per_law(monkeypatch):
    # run_law ignores McConfig.workers, so clause 04 leaves it at its
    # default; its verdict is that two runs of the quad_cr config agree
    configs = []

    def record(cfg, table=None):
        configs.append(cfg)
        return SimpleNamespace(ks_distance=1e-3, counts=np.arange(3))

    monkeypatch.setattr(verify.mc, "run_law", record)
    [result] = verify._check_mc(True, None)
    assert result.failed == ()
    assert [c.law for c in configs] == ["crossratio_full", "quad_cr", "length", "star",
                                        "quad_cr"]
    default = verify.mc.McConfig(n_samples=1, seed=0).workers
    assert {(c.n_samples, c.seed, c.workers) for c in configs} == {
        (10**5, verify._SEED, default)}


@pytest.mark.parametrize("counts, ks, failed", [
    ((0, 1, 2), 1e-3, ()),
    ((0, 1, 3), 1e-3, ("deterministic",)),
    ((0, 1, 2), float(np.nextafter(1e-3, 1.0)), ("deterministic",)),
])
def test_monte_carlo_clause_compares_the_quad_cr_rerun(monkeypatch, counts, ks, failed):
    # the rerun must give the first quad_cr run's counts and KS exactly
    runs = []

    def record(cfg, table=None):
        runs.append(cfg.law)
        rerun = runs.count("quad_cr") == 2
        return SimpleNamespace(ks_distance=ks if rerun else 1e-3,
                               counts=np.array(counts if rerun else (0, 1, 2)))

    monkeypatch.setattr(verify.mc, "run_law", record)
    [result] = verify._check_mc(True, None)
    assert result.failed == failed
