"""Closed-form laws against quadrature oracles and exact anchors."""
from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import Chebyshev
from scipy.integrate import dblquad, quad

from oracles import sample_length_values
from punctorus import closedform, modmap
from punctorus.closedform import (
    LENGTH_THRESHOLD,
    QuadCrInverseCdf,
    crossratio_cdf,
    crossratio_pdf,
    length_branch_cdf,
    length_branch_median,
    length_cdf,
    length_mean,
    length_pdf,
    length_pdf_dual,
    perpendicular_length,
    quad_cr_cdf,
    quad_cr_median,
    quad_cr_pdf,
    sample_quad_cr_values,
    star_cdf,
    star_pdf,
)

PI2 = math.pi ** 2


def test_threshold_value():
    assert LENGTH_THRESHOLD == pytest.approx(2.0 * math.log(1.0 + math.sqrt(2.0)),
                                             rel=1e-15)


EPS = 2.0**-52


def _li2(x):
    """Li2(x) for x in [-1, 1/2] as the laws evaluate it: the series in
    z = -log(1 - x)."""
    return closedform._li2_series(-np.log1p(-np.asarray(x, dtype=float)))


class TestDilog:
    """Li2 where the laws reach it: the Bernoulli series on [-1, 1/2],
    which crossratio_cdf and quad_cr_pdf call directly, and the gap
    Li2(x) - Li2(1 - x) on [-1, 2], which crossratio_cdf and the
    quadrilateral survival function read."""

    def test_special_values(self):
        assert _li2(-1.0) == pytest.approx(-PI2 / 12, rel=1e-15)
        assert _li2(0.5) == pytest.approx(PI2 / 12 - 0.5 * math.log(2.0) ** 2, rel=1e-15)
        assert _li2(0.0) == 0.0
        gap = closedform._li2_gap(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
        np.testing.assert_allclose(gap, [-PI2 / 3, -PI2 / 6, 0.0, PI2 / 6, PI2 / 3],
                                   rtol=1e-15, atol=0.0)
        assert math.copysign(1.0, gap[2]) == 1.0

    def test_small_arguments_keep_their_low_bits(self):
        for x in (1e-9, -1e-9, 1e-12, 1e-300):
            assert _li2(x) == pytest.approx(x + x**2 / 4 + x**3 / 9, rel=1e-15, abs=0.0)

    def test_against_mpmath(self):
        # 40-digit real parts as the oracle.  Over these grids the series
        # was within 0.996 eps of Li2 relative, and the gap within
        # 1.25 eps of max(1, |gap|) (absolute near x = 1/2, where it
        # crosses 0); the bounds, 2 and 3 eps, leave margins of 2.0 and
        # 2.4.
        xs = np.unique(np.concatenate([-np.geomspace(1e-300, 1.0, 201),
                                       np.geomspace(1e-300, 0.5, 201),
                                       np.linspace(-1.0, 0.5, 201)]))
        ys = np.unique(np.concatenate([np.linspace(-1.0, 2.0, 401),
                                       0.5 + np.geomspace(1e-300, 1.5, 101),
                                       0.5 - np.geomspace(1e-300, 1.5, 101),
                                       np.geomspace(1e-300, 1.0, 100),
                                       1.0 - np.geomspace(1e-16, 1.0, 100),
                                       1.0 + np.geomspace(1e-16, 1.0, 100)]))
        with mpmath.workdps(40):
            li2 = np.array([float(mpmath.polylog(2, mpmath.mpf(x))) for x in xs.tolist()])
            gap = np.array([float(mpmath.re(mpmath.polylog(2, mpmath.mpf(y))
                                            - mpmath.polylog(2, 1 - mpmath.mpf(y))))
                            for y in ys.tolist()])
        assert np.all(np.abs(_li2(xs) - li2) <= 2.0 * EPS * np.abs(li2))
        err = np.abs(closedform._li2_gap(ys) - gap)
        assert np.all(err <= 3.0 * EPS * np.maximum(1.0, np.abs(gap)))

    @given(st.floats(min_value=1.0001, max_value=2.0))
    def test_inversion_identity(self, x):
        # above 1 the gap takes the series at 1 - x < 0; by inversion and
        # reflection Re Li2(x) = pi^2/6 - log^2(x)/2 - log(x) log(y) + Li2(y)
        # at y = (x - 1)/x in (0, 1/2], a second route through the series
        y = (x - 1.0) / x
        li2_x = PI2 / 6 - 0.5 * math.log(x) ** 2 - math.log(x) * math.log(y) + _li2(y)
        assert closedform._li2_gap(np.array([x]))[0] == pytest.approx(li2_x - _li2(1.0 - x),
                                                                       rel=1e-12, abs=1e-15)


class TestFullCrossRatioLaw:
    def test_mass_is_one(self):
        mass = (quad(crossratio_pdf, -np.inf, 0.0)[0]
                + quad(crossratio_pdf, 0.0, 1.0)[0]
                + quad(crossratio_pdf, 1.0, np.inf)[0])
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_reflection_symmetry(self):
        for r in (-3.0, -0.4, 0.2, 0.49):
            assert crossratio_pdf(r) == pytest.approx(crossratio_pdf(1.0 - r),
                                                      rel=1e-12)

    def test_value_at_half(self):
        assert crossratio_pdf(0.5) == pytest.approx(4.0 * math.log(2.0) / PI2,
                                                    rel=1e-13)

    def test_tail_is_sixth_of_quad_law(self):
        for r in (2.0, 3.7, 25.0, 4e3):
            assert crossratio_pdf(r) == pytest.approx(quad_cr_pdf(r) / 6.0,
                                                      rel=1e-12)

    def test_singular_points(self):
        assert math.isinf(crossratio_pdf(0.0))
        assert math.isinf(crossratio_pdf(1.0))

    def test_array_matches_pointwise_scalars(self):
        # the three branches evaluated one float at a time with math.log1p
        def h(x):
            if abs(x) < 1e-6:
                return 1.0 + x * (0.5 + x * (1.0 / 3.0 + x * 0.25))
            return -math.log1p(-x) / x

        def pointwise(r):
            if r == 0.0 or r == 1.0:
                return math.inf
            if 0.0 < r < 1.0:
                return (h(r) - math.log(r) / (1.0 - r)) / PI2
            if r > 1.0:
                return (h(1.0 - r) / r + h(1.0 / r) / r**2) / PI2
            inv = math.log1p(-r) - math.log(-r) if r > -1.0 else math.log1p(-1.0 / r)
            return (h(r) + inv) / ((1.0 - r) * PI2)

        near = np.linspace(-1e-7, 1e-7, 41)
        rs = np.concatenate([-np.geomspace(1e6, 1e-9, 200), near, 1.0 + near,
                             np.linspace(-3.0, 4.0, 141), np.geomspace(1e-9, 1e6, 200)])
        got = crossratio_pdf(rs)
        want = np.array([pointwise(r) for r in rs.tolist()])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        np.testing.assert_allclose(got[fin], want[fin], rtol=1e-15, atol=0.0)
        assert [crossratio_pdf(r) for r in rs[:5].tolist()] == got[:5].tolist()

    def test_density_near_zero_against_mpmath(self):
        # 1 - r rounds to 1 below 1.1e-16, so h(1 - r) must come from r
        rs = np.geomspace(1e-8, 1e-300, 60)
        with mpmath.workdps(40):
            want = []
            for r in rs.tolist():
                x = mpmath.mpf(r)
                h = -mpmath.log1p(-x) / x - mpmath.log(x) / (1 - x)
                want.append(float(h / mpmath.pi ** 2))
        np.testing.assert_allclose(crossratio_pdf(rs), want, rtol=1e-14, atol=0)
        # r -> r/(r - 1) carries -r to about r, where 1/r would overflow
        np.testing.assert_allclose(crossratio_pdf(-rs), crossratio_pdf(rs), rtol=1e-7)

    def test_cdf_thirds(self):
        assert crossratio_cdf(0.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert crossratio_cdf(1.0) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert crossratio_cdf(0.5) == pytest.approx(0.5, abs=1e-14)
        assert crossratio_cdf(2.0) == pytest.approx(5.0 / 6.0, abs=1e-14)

    def test_cdf_of_nan_is_nan(self):
        assert math.isnan(crossratio_cdf(math.nan))
        got = crossratio_cdf(np.array([np.nan] * 1000 + [0.5]))
        assert np.isnan(got[:-1]).all() and got[-1] == pytest.approx(0.5, abs=1e-14)

    def test_length_cdf_of_nan_is_nan(self):
        assert math.isnan(length_cdf(math.nan))
        got = length_cdf(np.array([np.nan, -np.inf, 0.0, np.inf]))
        assert np.isnan(got[0]) and got[1:].tolist() == [0.0, 0.0, 1.0]

    def test_cdf_far_negative_tail(self):
        # F(r) = (2 Li2(r) + log(-r) log(1 - r))/pi^2 + 1/3 cancels to
        # about log|r|/|r|; carry enough digits to keep what is left
        rs = -np.geomspace(1e3, 1e300, 12)
        want = []
        for r in rs.tolist():
            with mpmath.workdps(int(math.log10(-r)) + 40):
                x = mpmath.mpf(r)
                want.append(float((2 * mpmath.polylog(2, x) + mpmath.log(-x) * mpmath.log(1 - x))
                                  / mpmath.pi ** 2 + mpmath.mpf(1) / 3))
        np.testing.assert_allclose(crossratio_cdf(rs), want, rtol=1e-12, atol=0)

    def test_cdf_matches_quadrature(self):
        xs = np.array([-7.0, -1.2, 0.3, 0.8, 1.6, 3.0, 12.0])
        got = np.asarray(crossratio_cdf(xs))
        want = [quad(crossratio_pdf, -np.inf, -20.0)[0]
                + quad(crossratio_pdf, -20.0, x.item(),
                       points=[p for p in (0.0, 1.0) if -20.0 < p < x])[0]
                for x in xs]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_cdf_ties_to_quad_law_above_two(self):
        for r in (2.0, 5.0, 40.0):
            lhs = 1.0 - crossratio_cdf(r)
            rhs = (1.0 - quad_cr_cdf(r)) / 6.0
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestQuadLaw:
    def test_density_at_left_edge(self):
        assert quad_cr_pdf(2.0) == pytest.approx(6.0 * math.log(2.0) / PI2,
                                                 rel=1e-14)

    def test_mass_is_one(self):
        assert quad(quad_cr_pdf, 2.0, np.inf)[0] == pytest.approx(1.0, abs=1e-10)

    def test_domain_guard(self):
        # 0 below the support, 0 at inf, nan stays nan
        assert quad_cr_pdf(1.99) == 0.0
        assert np.asarray(quad_cr_cdf(np.array([3.0, 1.0])))[1] == 0.0
        assert quad_cr_pdf(np.inf) == 0.0
        assert math.isnan(quad_cr_pdf(math.nan)) and math.isnan(quad_cr_cdf(math.nan))

    def test_cdf_endpoints(self):
        assert quad_cr_cdf(2.0) == pytest.approx(0.0, abs=1e-14)
        assert quad_cr_cdf(1e12) == pytest.approx(1.0, abs=1e-10)
        assert quad_cr_cdf(np.inf) == 1.0

    def test_cdf_leaves_zero_upward(self):
        # 0 at 2 by construction, then nondecreasing ulp by ulp
        r = 2.0 + np.arange(20001) * np.spacing(2.0)
        got = np.asarray(quad_cr_cdf(r))
        assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0
        assert np.all(np.diff(got) >= 0.0) and got[-1] > 0.0

    def test_cdf_matches_quadrature(self):
        for r in (2.5, 4.0, 9.0, 150.0):
            want = quad(quad_cr_pdf, 2.0, r)[0]
            assert quad_cr_cdf(r) == pytest.approx(want, abs=1e-12)

    def test_survival_matches_tail_quadrature(self):
        # integral of the density over [r, inf), taken as r * int_1^inf f(r t) dt
        # so the quadrature's own change of variables sees a unit scale
        for r in (1e3, 1e6, 1e9):
            want = r * quad(lambda t: quad_cr_pdf(r * t), 1.0, np.inf,
                            epsabs=0.0, epsrel=1e-12, limit=200)[0]
            assert closedform._quad_sf(r) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_median_value(self):
        med = quad_cr_median()
        assert med == pytest.approx(4.688303105472306, rel=1e-12)
        assert quad_cr_cdf(med) == pytest.approx(0.5, abs=1e-12)


def _cauchy_route_cdf(r: float) -> float:
    """P(CR <= r) for four uniform circle points, with no dilogarithm and
    no density.

    Rotation puts the first point at angle 0, so its half-angle tangent
    is 0; with b and c the others', the cross ratio is the Moebius map
    d -> c (b - d) / (b (c - d)) of the last one, a standard Cauchy draw
    (Cauchy at i).  Real Moebius maps carry the Cauchy law at w to the
    law at M(w) (McCullagh, Ann. Statist. 24, 1996), so given b and c the
    cross ratio is Cauchy with location Re w and scale |Im w|,
    w = c (b - i) / (b (c - i)); F averages that law's CDF over the two
    angles, split along the diagonal b = c, where the scale vanishes.
    """
    def cdf_given(theta_b, theta_c):
        b, c = math.tan(0.5 * theta_b), math.tan(0.5 * theta_c)
        w = c * (b - 1j) / (b * (c - 1j))
        return 0.5 + math.atan((r - w.real) / abs(w.imag)) / math.pi

    turn = 2.0 * math.pi
    below = dblquad(cdf_given, 0.0, turn, 0.0, lambda c: c, epsabs=1e-12, epsrel=1e-12)[0]
    above = dblquad(cdf_given, 0.0, turn, lambda c: c, turn, epsabs=1e-12, epsrel=1e-12)[0]
    return (below + above) / turn**2


def _cauchy_route_quad_cdf(q: float) -> float:
    """P(canonical CR <= q): the cross ratio's orbit maximum is at most q
    exactly on [1 - q, -1/(q - 1)], [1/q, 1 - 1/q] and [q/(q - 1), q]."""
    ends = [(1.0 - q, -1.0 / (q - 1.0)), (1.0 / q, 1.0 - 1.0 / q), (q / (q - 1.0), q)]
    return sum(_cauchy_route_cdf(hi) - _cauchy_route_cdf(lo) for lo, hi in ends)


class TestIndependentCauchyRoute:
    """The circle laws against an integral of Cauchy CDFs, which shares
    no code with closedform.

    Measured differences (scipy 1.17.1): crossratio_cdf at most 1.1e-16
    absolute and 3.2e-15 relative to min(F, 1 - F) (at r = -50);
    quad_cr_cdf at most 2.2e-16 (at its median); length_branch_cdf at
    1 by 1.1e-16.  The bounds below are about 9 and 10 times those.
    Points stay at least 1e-6 from the density's singularities at 0 and
    1.
    """

    @pytest.mark.parametrize("r", [-50.0, -7.3, -1.0001, -0.999, 0.2, 0.5, 0.9,
                                   0.999999, 1.000001, 5.0, 30.0])
    def test_crossratio_cdf(self, r):
        want = _cauchy_route_cdf(r)
        diff = abs(float(crossratio_cdf(r)) - want)
        assert diff <= 1e-15
        assert diff <= 3.2e-14 * min(want, 1.0 - want)

    @pytest.mark.parametrize("q", [2.5, 10.0, 100.0])
    def test_quad_cr_cdf(self, q):
        assert abs(float(quad_cr_cdf(q)) - _cauchy_route_quad_cdf(q)) <= 2e-15

    def test_quad_median_is_the_route_s_half(self):
        # confirms clause 02's median by a route that shares no code with it
        med = quad_cr_median()
        want = _cauchy_route_quad_cdf(med)
        assert abs(want - 0.5) <= 2e-15
        assert abs(float(quad_cr_cdf(med)) - want) <= 2e-15

    def test_length_branch_cdf(self):
        # the short branch is 2 artanh(Q**-1/2), decreasing in Q, so
        # P(L <= ell) = 1 - F_Q(coth(ell/2)**2)
        ell = 1.0
        want = 1.0 - _cauchy_route_quad_cdf(1.0 / math.tanh(0.5 * ell) ** 2)
        assert abs(float(length_branch_cdf(ell)) - want) <= 1e-15


# Each curve's input at n = 2^20, inside its domain, from one standard
# Cauchy sample c.
_DOMAINS = {
    "line": lambda c: 2.0 + c,
    "positive": np.abs,
    "moduli": lambda c: 1.0 + np.abs(c),
    "canonical": lambda c: 2.0 + np.abs(c),
    "unit": lambda c: 0.5 + np.arctan(c) / math.pi,  # the Cauchy CDF: uniform
}
# (name, curve, domain, bound in arrays of the input's size): every pdf
# and CDF of mc.CURVES, then the perpendicular length and the inverse
# CDF.  Each bound is the tracemalloc peak measured on this
# input plus at least 0.025 (0.8 of a 2^15 block), rounded up to a
# multiple of 0.05.  The peak is the output array plus block-sized
# scratch, 1.03-1.34 arrays; when each curve took the whole array the
# pdfs and the length CDFs peaked at 2.0-9.4 arrays and the inverse CDF
# at 6.0.
_PEAK_CASES = [
    ("quad_cr_cdf", quad_cr_cdf, "line", 1.25),
    ("crossratio_cdf", crossratio_cdf, "line", 1.2),
    ("crossratio_pdf", crossratio_pdf, "line", 1.25),
    ("quad_cr_pdf", quad_cr_pdf, "line", 1.15),
    ("length_pdf", length_pdf, "positive", 1.35),
    ("length_branch_cdf", length_branch_cdf, "positive", 1.25),
    ("length_pdf_dual", length_pdf_dual, "positive", 1.35),
    ("length_cdf", length_cdf, "positive", 1.25),
    ("star_pdf", star_pdf, "line", 1.1),
    ("star_cdf", star_cdf, "line", 1.1),
    ("modulus_pdf", modmap.modulus_pdf, "moduli", 1.35),
    ("modulus_cdf", modmap.modulus_cdf, "moduli", 1.3),
    ("teich_pdf", modmap.teich_pdf, "positive", 1.4),
    ("teich_cdf", modmap.teich_cdf, "positive", 1.35),
    ("perpendicular_length", perpendicular_length, "canonical", 1.1),
    ("inverse_cdf", closedform._INVERSE, "unit", 1.25),
]


@pytest.mark.parametrize("curve, domain, bound", [
    pytest.param(curve, domain, bound, id=f"{name}-{bound}")
    for name, curve, domain, bound in _PEAK_CASES])
def test_cdf_peak_memory(curve, domain, bound, cr_table):
    # every curve walks 2^15-point blocks, so one output array plus one
    # block of scratch; and the walk is invisible in the values
    n = 1 << 20
    x = _DOMAINS[domain](np.random.default_rng(0).standard_cauchy(n))
    table = (cr_table,) if curve.__module__ == modmap.__name__ else ()
    curve(x[:100], *table)
    tracemalloc.start()
    try:
        got = curve(x, *table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n
    block = closedform._BLOCK
    np.testing.assert_array_equal(
        got, np.concatenate([curve(x[i:i + block], *table) for i in range(0, n, block)]))


class TestLengthLaws:
    def test_branch_mass_is_one(self):
        assert quad(length_pdf, 0.0, LENGTH_THRESHOLD)[0] == pytest.approx(
            1.0, abs=1e-10)

    def test_dual_splits_mass_at_threshold(self):
        below = quad(length_pdf_dual, 0.0, LENGTH_THRESHOLD)[0]
        above = quad(length_pdf_dual, LENGTH_THRESHOLD, np.inf)[0]
        assert below == pytest.approx(0.5, abs=1e-10)
        assert below + above == pytest.approx(1.0, abs=1e-10)

    def test_branch_density_doubles_the_dual(self):
        xs = np.array([0.02, 0.4, 1.1, LENGTH_THRESHOLD])
        np.testing.assert_allclose(length_pdf(xs), 2.0 * np.asarray(
            length_pdf_dual(xs)), rtol=1e-13)

    def test_branch_density_vanishes_outside(self):
        assert length_pdf(LENGTH_THRESHOLD + 1e-9) == 0.0
        assert length_pdf(5.0) == 0.0

    def test_dual_rejects_nonpositive(self):
        got = length_pdf_dual(np.array([-1.0, 0.0, np.inf, np.nan]))
        assert got[:3].tolist() == [0.0, 0.0, 0.0] and math.isnan(got[3])
        assert math.isnan(length_pdf(math.nan))

    def test_series_regime_continuity(self):
        # straddle each branch cut tightly enough that the density's own
        # slope contributes below the bound; only a formula mismatch at
        # the switchover could trip this
        lo = np.asarray(length_pdf_dual(np.array([1e-6 * (1 - 1e-12),
                                                  1e-6 * (1 + 1e-12)])))
        assert abs(lo[0] - lo[1]) / lo[0] < 1e-8
        hi = np.asarray(length_pdf_dual(np.array([350.0 * (1 - 1e-12),
                                                  350.0 * (1 + 1e-12)])))
        assert abs(hi[0] - hi[1]) / hi[0] < 1e-8

    def test_cdf_against_quadrature(self):
        for x in (0.3, 0.9, LENGTH_THRESHOLD, 2.5, 6.0):
            want = quad(length_pdf_dual, 0.0, x,
                        points=[LENGTH_THRESHOLD] if x > LENGTH_THRESHOLD else None)[0]
            assert length_cdf(x) == pytest.approx(want, abs=1e-10)

    def test_half_mass_at_threshold(self):
        assert length_cdf(LENGTH_THRESHOLD) == pytest.approx(0.5, abs=1e-12)

    def test_mean_value(self):
        assert length_mean() == pytest.approx(0.9841540408986957, rel=1e-10)

    def test_branch_median_value(self):
        bm = length_branch_median()
        assert bm == pytest.approx(0.9992969432455838, rel=1e-10)
        # median of the short branch sits at a quarter of the full mass
        assert length_cdf(bm) == pytest.approx(0.25, abs=1e-12)


class TestStarLaw:
    def test_is_standard_cauchy(self):
        xs = np.array([-4.0, -1.0, 0.0, 0.7, 3.3])
        np.testing.assert_allclose(star_pdf(xs), 1.0 / (math.pi * (1.0 + xs**2)),
                                   rtol=1e-14)

    def test_cdf_values(self):
        assert star_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert star_cdf(1.0) == pytest.approx(0.75, abs=1e-15)
        assert star_cdf(-1.0) == pytest.approx(0.25, abs=1e-15)

    def test_mass_is_one(self):
        assert quad(star_pdf, -np.inf, np.inf)[0] == pytest.approx(1.0, abs=1e-10)


class TestInverseCdf:
    def test_roundtrip_through_cdf(self):
        inv = QuadCrInverseCdf()
        u = np.linspace(1e-9, 1.0 - 1e-9, 2001)
        r = inv(u)
        assert np.all(np.diff(r) >= 0.0)
        np.testing.assert_allclose(quad_cr_cdf(r), u, atol=1e-8)

    def test_far_tail_is_finite_and_extreme(self):
        inv = QuadCrInverseCdf()
        r = inv(np.array([1.0 - 1e-13]))
        assert np.isfinite(r).all()
        assert r[0] > 1e9

    def test_tail_matches_survival(self):
        # up to the largest double below 1, through u = 1 - 1.3814e-8 (r = 1e9)
        u = np.sort(np.concatenate([np.linspace(0.0, 1.0 - 1e-6, 1001),
                                    1.0 - np.geomspace(1e-6, 2.0**-53, 1001),
                                    1.0 - 1.3814e-8 * np.array([0.999, 1.0, 1.001])]))
        r = QuadCrInverseCdf()(u)
        assert (r >= 2.0).all()
        assert np.all(np.diff(r) >= 0.0)
        np.testing.assert_allclose(closedform._quad_sf(r), 1.0 - u, rtol=1e-10)

    def test_one_float_equals_the_array_path(self):
        # the one-float length draw calls the quantile on one float; at
        # the edge uniforms it gives the array path's bits,
        # u = -0.0 (whose z = -0.0 maps to the same t as z = 0) included
        edges = [-0.0, 0.0, 2.0**-60, 1e-300, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53,
                 1.0, 2.0, -1.0, math.nan]
        inv = QuadCrInverseCdf()
        u = np.concatenate([edges, np.linspace(0.0, 1.0, 16)])
        many = inv(u)
        for v, want in zip(edges, many.tolist()):
            for one in (v, np.float64(v)):
                got = inv._quantile(one)
                assert isinstance(got, float)
                assert _bits(got) == _bits(want), v
            assert _bits(inv(v)) == _bits(want), v

    def test_sampler_determinism(self):
        a = sample_quad_cr_values(4096, np.random.default_rng(3))
        b = sample_quad_cr_values(4096, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert (a >= 2.0).all()

    def test_length_sampler_supports(self):
        x = sample_length_values(8192, np.random.default_rng(5))
        assert (x > 0.0).all()
        # full-line law: half the mass on each side of the threshold
        frac = np.mean(x <= LENGTH_THRESHOLD)
        assert abs(frac - 0.5) < 0.02

    def test_length_sampler_ks(self):
        x = np.sort(sample_length_values(65536, np.random.default_rng(7)))
        f = np.asarray(length_cdf(x))
        n = len(x)
        d = np.max(np.abs(f - (np.arange(1, n + 1) - 0.5) / n))
        assert d < 0.01


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


class TestClenshaw:
    """The one series evaluator equals ``Chebyshev.__call__`` bit for bit."""

    @staticmethod
    def points(lo: float, hi: float, rng) -> list:
        """x shaped 0-d, (0,), (1,), (2,), (16,), (17,) and (2**15 + 3,),
        domain ends included, and the two ends as floats."""
        sized = [rng.uniform(lo, hi, n) for n in (2, 16, 17, (1 << 15) + 3)]
        for x in sized:
            x[:2] = lo, hi
        return [np.array(lo), np.array(hi), np.array(0.5 * (lo + hi)), np.empty(0),
                np.array([hi]), *sized, lo, hi]

    def assert_same(self, series, xs) -> None:
        for x in xs:
            want, got = series(x), closedform._clenshaw(closedform._Series(series), x)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("degree", range(32))
    def test_every_degree_on_random_domains(self, degree):
        rng = np.random.default_rng(100 + degree)
        for _ in range(3):
            lo = rng.uniform(-10.0, 10.0)
            hi = lo + rng.uniform(1e-3, 20.0)
            series = Chebyshev(rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-3, 3),
                               domain=[lo, hi])
            self.assert_same(series, self.points(lo, hi, rng))

    def test_the_package_series(self, cr_table):
        rng = np.random.default_rng(31)
        series = [closedform._INVERSE._log_r.cheb, cr_table._deficit.cheb,
                  cr_table._deficit_d1.cheb, cr_table._deficit.cheb.deriv(2),
                  cr_table._excess.cheb]
        for s in series:
            self.assert_same(s, self.points(*s.domain, rng))
