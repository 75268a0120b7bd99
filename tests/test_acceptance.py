"""Acceptance gate: the eleven numbered checks, tolerances, and budgets.

Each criterion gets one test (criteria 9 and 10 split into lettered
clauses), so the verbose run shows one pass/fail line per clause.
Every number and every bound is in verify.run_checks, whose check names
these tests carry; the tests assert its verdicts, and a failure names
the bounds that failed.  The one bound verify cannot see is clause 07's
budget for the session's table build.  Clause 09a states a Teichmueller
median this implementation measurably misses; it is asserted as stated,
fails, and carries the measured value in its message.  The derivations
behind clauses 09d and 10a sit in verify, next to their bounds.
"""
from __future__ import annotations

import pytest


@pytest.fixture(scope="module")
def checks(verify_results):
    return {r.name: r for r in verify_results}


def _holds(checks, name: str) -> None:
    r = checks[name]
    assert r.passed, f"{r.detail}; failed bounds: {', '.join(r.failed)}"


def test_criterion_01_pdf_normalization(checks):
    _holds(checks, "01-pdf-normalization")


def test_criterion_02_quad_median(checks):
    _holds(checks, "02-quad-median")


def test_criterion_03_length_checkpoints(checks):
    _holds(checks, "03-length-checkpoints")


def test_criterion_04_monte_carlo_ks(checks):
    _holds(checks, "04-monte-carlo-ks")


def test_criterion_05_square_torus_solve(checks):
    _holds(checks, "05-square-torus-solve")


def test_criterion_06_functional_equation(checks):
    _holds(checks, "06-functional-equation")


def test_criterion_07_asymptotic_sandwich(checks, cr_table_build):
    _holds(checks, "07-asymptotic-sandwich")
    build_seconds = cr_table_build[1]
    assert build_seconds < 180.0, f"table build took {build_seconds:.0f}s"


def test_criterion_08_derivative_at_square(checks):
    _holds(checks, "08-derivative-at-square")


def test_criterion_09a_teich_median(checks):
    _holds(checks, "09a-teich-median")


def test_criterion_09b_teich_sd(checks):
    _holds(checks, "09b-teich-sd")


def test_criterion_09c_teich_mean(checks):
    _holds(checks, "09c-teich-mean")


def test_criterion_09d_teich_initially_increasing(checks):
    _holds(checks, "09d-teich-initially-increasing")


def test_criterion_10a_modulus_tail_coefficient(checks):
    _holds(checks, "10a-modulus-tail-coefficient")


def test_criterion_10b_quad_tail_residual(checks):
    _holds(checks, "10b-quad-tail-residual")


def test_criterion_11_group_identities(checks):
    _holds(checks, "11-group-identities")
