"""Cross ratios, the substitution orbit, and the length dictionary."""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import apply, canonical_representative, s4_orbit, sample_length_values
from punctorus import closedform
from punctorus.closedform import LENGTH_THRESHOLD, perpendicular_length
from punctorus.hypgeom import MoebiusMap, cross_ratio
from punctorus.mc import _sample_chunk

INF = complex(math.inf)


class TestCrossRatio:
    def test_known_value(self):
        cr = cross_ratio(0.0, 1.0, 2.0, 4.0)
        assert cr.value == pytest.approx(3.0)
        assert canonical_representative(cr.value) == pytest.approx(3.0)

    def test_normalizing_triple(self):
        """With (z2, z3, z4) = (inf, 0, 1) the value is z1 itself."""
        cr = cross_ratio(0.3, INF, 0.0, 1.0)
        assert cr.value == pytest.approx(0.3)

    def test_each_infinity_slot(self):
        a, b, c = 0.7, -1.3, 2.9
        finite = cross_ratio(1e9, a, b, c).value
        assert cross_ratio(INF, a, b, c).value == pytest.approx(finite, rel=1e-6)
        finite = cross_ratio(a, 1e9, b, c).value
        assert cross_ratio(a, INF, b, c).value == pytest.approx(finite, rel=1e-6)
        finite = cross_ratio(a, b, 1e9, c).value
        assert cross_ratio(a, b, INF, c).value == pytest.approx(finite, rel=1e-6)
        finite = cross_ratio(a, b, c, 1e9).value
        assert cross_ratio(a, b, c, INF).value == pytest.approx(finite, rel=1e-6)

    def test_two_infinities_rejected(self):
        with pytest.raises(ValueError):
            cross_ratio(INF, 1.0, INF, 2.0)

    def test_indeterminate_configuration_rejected(self):
        # z1 = z2 = z3 zeroes a factor of the numerator and of the
        # denominator at once
        with pytest.raises(ValueError):
            cross_ratio(1.0, 1.0, 1.0, 2.0)

    def test_moebius_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            f = MoebiusMap(*coeffs)
            before = cross_ratio(*z).value
            after = cross_ratio(*(apply(f, w) for w in z)).value
            assert complex(after) == pytest.approx(complex(before), rel=1e-9)

    def test_map_needs_a_finite_nonzero_determinant(self):
        for bad in ((1.0, 2.0, 0.5, 1.0), (math.inf, 0.0, 0.0, 1.0),
                    (1e200, 1.0, 1.0, 1e200), (math.nan, 0.0, 0.0, 1.0)):
            with pytest.raises(ValueError, match="determinant"):
                MoebiusMap(*bad)

    def test_concyclic_points_give_real_value(self):
        th = np.array([0.3, 1.1, 2.9, 5.0])
        pts = np.exp(1j * th)
        cr = cross_ratio(*pts)
        assert type(cr.value) is float
        assert canonical_representative(cr.value) >= 2.0

    @pytest.mark.parametrize("pts", [
        (1e200, 0.0, 1.0, -1e200),          # the products overflow (was nan)
        (3e-200, 2e-200, 1e-200, 0.0),      # the products underflow (was 0/0)
        (1e300, -1e300, 1.0, 2.0),          # the numerator overflows (was inf)
        (1.7e308, -1.7e308, 1.0, 2.0),      # a difference overflows (was nan)
    ])
    def test_extreme_finite_points(self, pts):
        z1, z2, z3, z4 = map(Fraction, pts)
        exact = float((z1 - z3) * (z2 - z4) / ((z1 - z2) * (z3 - z4)))
        got = cross_ratio(*pts).value
        assert abs(got - exact) <= 2.0 * math.ulp(exact)

    def test_value_past_the_largest_double_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            cross_ratio(5e-324, 0.0, 1e300, 1.0000000000000002e300)

    def test_scaled_points_give_the_same_bits(self):
        # scaling all four points by 2**k leaves the cross ratio as it is
        # and scales each factor exactly; at 2**+-600 the products leave
        # the plain formula's range and take the scaled route
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = (rng.normal(size=4) + 1j * rng.normal(size=4)).tolist()
            for pts in (z, [w.real for w in z]):
                want = cross_ratio(*pts).value
                for k in (600, -600):
                    assert cross_ratio(*(math.ldexp(1.0, k) * w for w in pts)).value == want

    def test_nonreal_value_stays_complex(self):
        assert type(cross_ratio(0.0, 1.0, 2.0 + 1j, 3.0).value) is complex

    def test_infinite_value_is_inf(self):
        # the denominator vanishes
        assert cross_ratio(0.0, 0.0, 1.0, 2.0).value is math.inf

    def test_zero_value_keeps_its_sign(self):
        # the numerator vanishes; (0 - 0)(1 - 2) is -0.0
        value = cross_ratio(0.0, 1.0, 0.0, 2.0).value
        assert type(value) is float
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    def test_value_near_the_real_axis_is_its_real_part(self):
        # within 1e-9 (1 + |v|) of the real axis
        value = cross_ratio(0.0, 1.0, 2.0 + 1e-12j, 3.0).value
        assert type(value) is float
        assert value == pytest.approx(4.0, rel=1e-12)


class TestOrbit:
    def test_six_values_fixed_order(self):
        lam = 3.0
        orbit = s4_orbit(lam)
        assert orbit == pytest.approx((3.0, -2.0, 1.5, 1 / 3, -0.5, 2 / 3))

    @given(st.floats(min_value=-50, max_value=50).filter(
        lambda x: min(abs(x), abs(x - 1)) > 1e-3))
    def test_orbit_closed_under_generators(self, lam):
        orbit = set(s4_orbit(lam))
        for v in list(orbit):
            assert 1 - v == pytest.approx(min(orbit, key=lambda w: abs(w - (1 - v))),
                                          rel=1e-9, abs=1e-9)
            assert 1 / v == pytest.approx(min(orbit, key=lambda w: abs(w - 1 / v)),
                                          rel=1e-9, abs=1e-9)

    @given(st.floats(min_value=-50, max_value=50).filter(
        lambda x: min(abs(x), abs(x - 1)) > 1e-3))
    def test_canonical_is_at_least_two(self, lam):
        q = canonical_representative(lam)
        assert q >= 2.0 - 1e-12

    def test_boundary_orbit_hits_exactly_two(self):
        assert canonical_representative(-1.0) == pytest.approx(2.0)
        assert canonical_representative(0.5) == pytest.approx(2.0)
        assert canonical_representative(2.0) == pytest.approx(2.0)

    def test_degenerate_orbit_rejected(self):
        with pytest.raises(ValueError):
            s4_orbit(0.0)
        with pytest.raises(ValueError):
            s4_orbit(1.0)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf])
    def test_infinite_orbit_rejected(self, lam):
        # infinity is the third degenerate cross ratio; its images held
        # nan (inf/inf) and their maximum was inf
        with pytest.raises(ValueError, match=re.escape(f"lam = {lam!r}")):
            s4_orbit(lam)
        with pytest.raises(ValueError):
            canonical_representative(lam)


class _FixedUniform:
    """Stands in for a Generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, size):
        assert size == len(self.u)
        return self.u


def _both_branches(u):
    """Short- and long-branch lengths at the same cross ratios.

    sample_length_values sends u < 1/2 to the short branch at the
    quantile of 1 - 2u and u >= 1/2 to the long one at that of 2u - 1,
    so u and 1 - u read one cross ratio Q (dyadic u keep it exact).
    """
    u = np.asarray(u, dtype=float)
    x = sample_length_values(2 * len(u), _FixedUniform(np.concatenate([u, 1.0 - u])))
    return x[:len(u)], x[len(u):]


class TestLengthDictionary:
    def test_perpendicular_length_inverts_coth_square(self):
        # only lengths up to the threshold have cross ratio >= 2
        ells = np.array([0.1, 0.7, 1.3, 1.76])
        q = 1.0 / np.tanh(ells / 2) ** 2
        np.testing.assert_allclose(perpendicular_length(q), ells, rtol=1e-12)
        for ell, qq in zip(ells, q):
            assert perpendicular_length(qq.item()) == pytest.approx(ell, rel=1e-12)

    def test_threshold_maps_to_two(self):
        thr = 2.0 * math.log(1.0 + math.sqrt(2.0))
        assert perpendicular_length(2.0) == pytest.approx(thr, rel=1e-14)

    def test_large_cr_stays_accurate(self):
        q = 1e16
        # artanh form: length ~ 2/sqrt(Q) without cancellation
        assert perpendicular_length(q) == pytest.approx(2e-8, rel=1e-6)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            perpendicular_length(1.999999)
        with pytest.raises(ValueError):
            perpendicular_length(np.array([3.0, 1.999999]))

    def test_dual_is_an_involution(self):
        # at one cross ratio the two branches x, y satisfy
        # sinh(x/2) sinh(y/2) = 1, the involution that swaps them
        short, long = _both_branches([1 / 1024, 1 / 16, 0.125, 0.375, 0.4375])
        assert np.all(short < LENGTH_THRESHOLD) and np.all(long > LENGTH_THRESHOLD)
        np.testing.assert_allclose(np.sinh(short / 2) * np.sinh(long / 2), 1.0,
                                   rtol=1e-12)

    @pytest.mark.parametrize("seed, chunk, count", [(7, 0, 1 << 14), (523, 3, 1 << 14),
                                                    (11, 1, 1001)])
    def test_length_sampler_reads_the_quad_cr_draws(self, seed, chunk, count):
        # the length law is the short length of the quadrilateral law's
        # own draws, at the same (seed, chunk)
        q = _sample_chunk("quad_cr", seed, chunk, count, None)
        got = _sample_chunk("length", seed, chunk, count, None)
        np.testing.assert_array_equal(got.view(np.int64),
                                      closedform._short_length(q).view(np.int64))

    def test_dual_fixed_point(self):
        # the involution fixes the threshold, where Q = 2 and the two
        # branches meet
        short, long = _both_branches([0.5 - 2.0**-40])
        assert short[0] == pytest.approx(LENGTH_THRESHOLD, rel=1e-10)
        assert long[0] == pytest.approx(LENGTH_THRESHOLD, rel=1e-10)
        assert np.sinh(short[0] / 2) * np.sinh(long[0] / 2) == pytest.approx(1.0, rel=1e-12)
