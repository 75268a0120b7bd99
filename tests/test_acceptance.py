"""Acceptance gate: the eleven numbered checks, tolerances, and budgets.

Each criterion gets one test (criteria 9 and 10 split into lettered
clauses), so the verbose run shows one pass/fail line per clause.
Every number is computed once, by verify.run_checks, whose check names
these tests carry; the tests only hold the bounds.  Clause 09a states a
Teichmueller median this implementation measurably misses; it is
asserted as stated, fails, and carries the measured value in its
message.  Clauses 09d and 10a assert the shape and the tail coefficient
that the modulus law provably has; their docstrings give the
derivations.
"""
from __future__ import annotations

import math

import numpy as np
import pytest


@pytest.fixture(scope="module")
def checks(verify_results):
    return {r.name: r.values for r in verify_results}


def test_criterion_01_pdf_normalization(checks):
    v = checks["01-pdf-normalization"]
    for name, m in v["masses"].items():
        assert abs(m - 1.0) < 1e-8, f"{name} law mass {m!r}"
    assert v["seconds"] < 1.0, f"normalization took {v['seconds']:.2f}s"


def test_criterion_02_quad_median(checks):
    v = checks["02-quad-median"]
    assert v["median"] == pytest.approx(4.6883, abs=5e-4), f"median {v['median']!r}"
    assert v["seconds"] < 0.1, f"median took {v['seconds']:.3f}s"


def test_criterion_03_length_checkpoints(checks):
    v = checks["03-length-checkpoints"]
    assert v["mean"] == pytest.approx(0.984154, abs=1e-4), f"mean {v['mean']!r}"
    assert v["branch_median"] == pytest.approx(0.99929, abs=1e-3), \
        f"branch median {v['branch_median']!r}"
    assert v["seconds"] < 1.0, f"checkpoints took {v['seconds']:.2f}s"


def test_criterion_04_monte_carlo_ks(checks):
    v = checks["04-monte-carlo-ks"]
    for law, d in v["ks"].items():
        assert d < 0.005, f"{law} KS {d!r}"
    np.testing.assert_array_equal(*v["rerun_counts"])
    ks_a, ks_b = v["rerun_ks"]
    assert v["ks"]["quad_cr"] == ks_a == ks_b
    assert v["seconds"] < 30.0, f"Monte Carlo took {v['seconds']:.1f}s"


def test_criterion_05_square_torus_solve(checks):
    v = checks["05-square-torus-solve"]
    assert v["cross_ratio"] == pytest.approx(2.0, abs=1e-6), f"CR {v['cross_ratio']!r}"
    assert abs(v["tangency"]) < 1e-10
    assert v["drift"] < 1e-9
    assert v["seconds"] < 0.5, f"solve took {v['seconds']:.2f}s"


def test_criterion_06_functional_equation(checks):
    v = checks["06-functional-equation"]
    for m, g in v["gaps"].items():
        assert g < 1e-5, f"m={m}: functional-equation gap {g!r}"
    assert v["seconds"] < 10.0, f"ten solves took {v['seconds']:.1f}s"


def test_criterion_07_asymptotic_sandwich(checks, cr_table_build):
    v = checks["07-asymptotic-sandwich"]
    assert v["below"].size == 0 and v["above"].size == 0, \
        f"sandwich violated at {v['below'][:3]} {v['above'][:3]}"
    lo, hi = v["deficit"]
    assert lo >= 0.5 and hi <= 1.3, f"deficit range [{lo:.4f}, {hi:.4f}]"
    build_seconds = cr_table_build[1]
    assert build_seconds < 180.0, f"table build took {build_seconds:.0f}s"


def test_criterion_08_derivative_at_square(checks):
    v = checks["08-derivative-at-square"]
    a = v["a"]
    assert 0.98 * math.pi / 2 <= a <= 1.02 * math.pi / 2, f"a_estimate {a!r}"
    assert v["curvature_gap"] < 0.02 * a * a, f"curvature gap {v['curvature_gap']!r}"
    assert abs(v["cr2"] - (a * a - a)) < 0.02 * a * a, \
        f"CR''(1) {v['cr2']!r} vs a^2-a {a * a - a!r}"


def test_criterion_09a_teich_median(checks):
    median = checks["09a-teich-median"]["median"]
    assert median == pytest.approx(0.779, abs=0.02), \
        f"measured median {median:.5f}; see the README acceptance notes"


def test_criterion_09b_teich_sd(checks):
    sd = checks["09b-teich-sd"]["sd"]
    assert sd == pytest.approx(0.803, abs=0.02), f"measured sd {sd:.5f}"


def test_criterion_09c_teich_mean(checks):
    mean = checks["09c-teich-mean"]["mean"]
    assert mean == pytest.approx(1.0, abs=0.05), f"measured mean {mean:.5f}"


def test_criterion_09d_teich_initially_increasing(checks):
    """The log-modulus density is flat at the square torus, then decreasing.

    Write phi(d) = CR(e^d) and f for the quadrilateral density, so the
    density of d = log m is T = f(phi) phi'.  With a = phi'(0) = CR'(1):

    - the functional equation phi(-d) = phi/(phi - 1) forces
      phi''(0) = a^2;
    - invariance of the cross-ratio law under x -> x/(x - 1) forces
      f'(2) = -f(2);
    - so T'(0) = a^2 (f'(2) + f(2)) = 0 identically, and the shape near
      d = 0 is the sign of T''(0) = a^3 (f''(2) - 3 f(2)) + f(2) phi'''(0).

    The clause was first written as "initially increasing", which would
    need T''(0) > 0.  Direct accessory solves at m = e^{kh}, k = -2..2,
    outside the table, give T''(0) = -0.443, -0.454, -0.456 at
    h = 0.1, 0.05, 0.025: the density decreases from the start.  The
    check takes f, f', f'' from one-sided stencils at q = 2 and phi from
    the solves at h = 0.05, with phi'' from the fourth-order central
    stencil; clause 08 reads its CR''(1) = phi''(0) - phi'(0) from the
    same four solves.  The grid begins at 0.01 because the
    spline's derivative error near m = 1 exceeds the true change of T
    between 0 and 0.01.
    """
    v = checks["09d-teich-initially-increasing"]
    assert v["a_table"] > 1.0
    f0, f1 = v["f0"], v["f1"]
    assert abs(f1 + f0) < 1e-8 * f0, f"f'(2) {f1!r} vs -f(2) {-f0!r}"
    a, phi2 = v["a"], v["phi2"]
    assert abs(phi2 - a * a) < 0.01 * a * a, f"phi''(0) {phi2!r} vs a^2 {a * a!r}"
    t2 = v["t2"]
    assert t2 < 0.0, f"T''(0) = {t2!r} from direct solves"
    assert np.all(np.diff(v["ts"]) < 0), \
        (f"density at d={v['ds'].tolist()} is {np.round(v['ts'], 6).tolist()}, "
         f"not strictly decreasing although T''(0) = {t2:.3f}")


def test_criterion_10a_modulus_tail_coefficient(checks):
    """The modulus density decays like 6 log m / m^3.

    Clause 10b fixes the quadrilateral tail f(q) ~ (6/pi^2)(log q + 1)/q^2,
    whose survival function is P(q > Q) ~ (6/pi^2)(log Q + 2)/Q.  Clause
    07 puts m between (pi/2) sqrt(q) - pi/2 and (pi/2) sqrt(q), so
    P(m > x) lies between P(q > (2x/pi)^2) and P(q > (2(x + pi/2)/pi)^2),
    and both are ~ 3 log x / x^2.  Hence M(m) ~ 6 log m / m^3, and the
    scaled values M(m) m^3 / (6 log m) on m = geomspace(50, 200, 7)
    approach 1 at rate 1/log m (0.965 to 0.997 here).

    The clause was first written as M(m) pi^5 m^3 / (192 log m), which by
    the same argument tends to pi^5/32 = 9.563, not 1.  The band still
    rejects a coefficient off by a factor of 1.51 or more upward, or of 2
    or more downward.
    """
    scaled = checks["10a-modulus-tail-coefficient"]["scaled"]
    assert np.all((0.5 <= scaled) & (scaled <= 1.5)), \
        f"M*m^3/(6 log m) spans [{scaled.min():.3f}, {scaled.max():.3f}]"


def test_criterion_10b_quad_tail_residual(checks):
    scaled = checks["10b-quad-tail-residual"]["scaled"]
    c = 6.0 / math.pi**2
    bound = 20.0 * c
    assert np.all(np.abs(scaled) <= bound), \
        f"residual x r^4 peaks at {np.abs(scaled).max():.3f} (bound {bound:.3f})"


def test_criterion_11_group_identities(checks):
    v = checks["11-group-identities"]
    assert v["rect"] < 1e-9, f"rectangular commutator trace off by {v['rect']!r}"
    assert v["general"] < 1e-9, f"sheared commutator trace off by {v['general']!r}"
    assert v["vertex"] < 1e-10, f"vertex cross ratio off by {v['vertex']!r}"
