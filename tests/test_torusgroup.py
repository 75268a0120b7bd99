"""Fuchsian side-pairing groups: generators, circles, traces, sampling."""
from __future__ import annotations

import cmath
import dataclasses
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from oracles import (apply, circles, commutator_by_records, compose, inverse, isometric_circle,
                     normalized, tangency_vertices_by_circles)
from punctorus.closedform import _dual_length, _short_length
from punctorus import mc, torusgroup
from punctorus.hypgeom import MoebiusMap, cross_ratio
from punctorus.torusgroup import (
    angle_relation,
    commutator,
    nonrectangular_pair,
    rectangular_generators,
    sample_torus,
    tangency_vertices,
)


def as_mat(m: MoebiusMap) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


def tr(m: MoebiusMap) -> complex:
    return m.a + m.d


def quad_cross_ratio(r: float) -> float:
    """Closed-form cross ratio of a rectangular pair's tangency vertices."""
    return 1.0 + r * r


def commutator_trace(lam: float, mu: float) -> float:
    """tr[u, v] - 2 at twists (lam, mu) of nonrectangular_pair, in closed form.

    Equals -4 exactly when the twists agree (the parabolic, cusped
    case), and does not depend on the radius of the underlying pair.
    With A = sqrt(lam^2 + 1) and B = sqrt(mu^2 + 1) the numerator
    lam^2 (mu^2 + 1) - 2 A B + mu^2 + 2 of the closed form is
    lam^2 mu^2 + (A - B)^2, and A - B = (lam^2 - mu^2)/(A + B), so the
    value is -4 (1 + ((lam^2 - mu^2)/(lam mu (A + B)))^2), which
    subtracts nothing but lam - mu.  Singular at zero twist.
    """
    t = (lam - mu) / (lam * mu) * (lam + mu) / (math.sqrt(lam * lam + 1.0)
                                                 + math.sqrt(mu * mu + 1.0))
    return -4.0 * (1.0 + t * t)


# |tr[A, B] + 2| <= PARABOLIC_C max(r^2, r^-2) eps for the rectangular
# pair of radius r.  The worst seen was 45.8 (near r = 1.02) over
# 2.4e6 log-uniform radii in [1/2, 2], where the constant peaks, and
# about 12 near either end of [2^-23, 2^23]; 64 leaves a 40% margin.
PARABOLIC_C = 64.0


# |tr[u, v] + 2| <= SHEARED_C max(r^2, r^-2) (1 + lam^2)^2 eps for the
# sheared pair at (r, lam).  The worst seen was 90.4 (near r = 1.03,
# lam = 7.95) over 6 * 10**5 log-uniform points in and around the box
# r in [2^-10, 2^10], lam in [0, 16].
SHEARED_C = 128.0


def assert_sheared_parabolic(r: float, lam: float) -> None:
    u, v = nonrectangular_pair(r, lam)
    scale = max(r * r, 1.0 / (r * r)) * (1.0 + lam * lam) ** 2 * np.finfo(float).eps
    assert abs(tr(commutator(u, v)) + 2.0) <= SHEARED_C * scale, (r, lam)


def assert_parabolic(r: float) -> None:
    pair = rectangular_generators(r)
    drift = abs(tr(commutator(pair.A, pair.B)) + 2.0)
    assert drift <= PARABOLIC_C * max(r * r, 1.0 / (r * r)) * np.finfo(float).eps, r


class TestRectangularPair:
    def test_printed_entries(self):
        pair = rectangular_generators(2.0)
        qa = math.sqrt(0.25 + 1.0)
        np.testing.assert_allclose(
            as_mat(pair.A), [[qa, 0.5], [0.5, qa]], rtol=1e-15)
        qb = math.sqrt(4.0 + 1.0)
        np.testing.assert_allclose(
            as_mat(pair.B), [[qb, 2.0j], [-2.0j, qb]], rtol=1e-15)

    def test_fixed_points(self):
        pair = rectangular_generators(0.7)
        for z in (1.0, -1.0):
            assert apply(pair.A, z) == pytest.approx(z, abs=1e-14)
        for z in (1.0j, -1.0j):
            assert apply(pair.B, z) == pytest.approx(z, abs=1e-14)

    @pytest.mark.parametrize("r", [1.0, 2.0, 0.37, 11.0])
    def test_commutator_is_parabolic(self, r):
        pair = rectangular_generators(r)
        com = commutator(pair.A, pair.B)
        assert complex(tr(com)) == pytest.approx(-2.0, abs=1e-12)

    def test_circle_geometry(self):
        pair = rectangular_generators(1.6)
        ca, ca_inv, cb, cb_inv = circles(pair)
        root = math.sqrt(1.6**2 + 1.0)
        assert ca.center == pytest.approx(-root, abs=1e-14)
        assert ca_inv.center == pytest.approx(root, abs=1e-14)
        assert ca.radius == pytest.approx(1.6, rel=1e-14)
        for c in (ca, ca_inv, cb, cb_inv):
            mod2 = abs(c.center) ** 2
            assert mod2 == pytest.approx(1.0 + c.radius**2, rel=1e-12)

    @pytest.mark.parametrize("r", [1e-8, 1e8])
    def test_extreme_radii_name_the_representable_range(self, r):
        # 1/r**2 + 1 (r**2 + 1) rounds so that the determinant is 0
        with pytest.raises(ValueError, match=re.escape("outside [2**-23, 2**23]")):
            rectangular_generators(r)

    @pytest.mark.parametrize("r", [2.0**-23, 2.0**23])
    def test_large_and_small_radii_still_build(self, r):
        pair = rectangular_generators(r)
        for m in (pair.A, pair.B):
            assert abs(complex(m.det()) - 1.0) <= 1e-15
        assert complex(tr(commutator(pair.A, pair.B))) == pytest.approx(-2.0, abs=1e-12)
        tangency_vertices(pair)

    def test_radii_near_the_ends_give_commutator_and_vertices(self):
        # the commutator's last product has entries near 2r (2/r), so its
        # determinant rounds to 0 long before the pair's own: for about
        # 5% of radii in [2**24, 2**25].  Every accepted radius must
        # give a parabolic commutator and the tangency vertices (the
        # trace rounds like max(r**2, r**-2) eps, up to 0.03 here).
        top = math.log2(torusgroup._RECT_MAX)
        assert torusgroup._RECT_MIN == 1.0 / torusgroup._RECT_MAX
        for e in np.random.default_rng(3).uniform(top - 1.0, top, 2000):
            for r in (2.0**e, 2.0**-e):
                assert_parabolic(r)
                pair = rectangular_generators(r)
                assert all(cmath.isfinite(v) for v in tangency_vertices(pair))

    def test_commutator_is_parabolic_across_the_accepted_range(self):
        top = math.log2(torusgroup._RECT_MAX)
        rng = np.random.default_rng(11)
        # the ends, log-uniform radii over the range, and the octave
        # around the square, where the constant is largest
        exps = np.concatenate(([-top, top], rng.uniform(-top, top, 4000),
                               rng.uniform(-1.0, 1.0, 4000)))
        for e in exps:
            assert_parabolic(2.0**e)

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_circles_reject_a_generator_fixing_infinity(self, which):
        pair = dataclasses.replace(rectangular_generators(2.0),
                                   **{which: MoebiusMap(2.0, 1.0, 0.0, 0.5)})
        with pytest.raises(ValueError, match="no isometric circle"):
            circles(pair)
        with pytest.raises(ValueError, match="no isometric circle"):
            tangency_vertices(pair)


def _entries(m: MoebiusMap) -> np.ndarray:
    return np.array([m.a, m.b, m.c, m.d], dtype=complex)


class TestOneNormalization:
    """commutator normalizes each generator once and inverts by the
    adjugate; the circles oracle, like tangency_vertices, normalizes
    none, reading the centres -d/c and a/c from the raw entries and the
    radii from the pair.  Both agree with the isometric_circle(inverse(.))
    and inverse() route, which normalizes each generator twice.

    The routes differ by how far det A = qa**2 - 1/r**2 rounds from 1,
    about max(r**2, r**-2) ulps.  Over 3 * 10**5 log-uniform radii in
    [2**-20, 2**20] the radii and the commutator's entries differed by
    at most 3.3 max(r**2, r**-2) eps relative (1.8e-4 at the ends) and
    the centres, which no normalization scales, by 2 eps; the bounds
    below are 8 max(r**2, r**-2) eps and 4 eps.
    """

    EPS = 2.0**-52

    @staticmethod
    def radii():
        return 2.0 ** np.random.default_rng(77).uniform(-20.0, 20.0, 2000)

    def test_circles_match_the_inverse_route(self):
        for r in self.radii():
            pair = rectangular_generators(r)
            old = (isometric_circle(pair.A), isometric_circle(inverse(pair.A)),
                   isometric_circle(pair.B), isometric_circle(inverse(pair.B)))
            loss = 8.0 * max(r * r, 1.0 / (r * r)) * self.EPS
            for new, ref in zip(circles(pair), old):
                assert abs(new.center - ref.center) <= 4.0 * self.EPS * abs(ref.center)
                assert abs(new.radius - ref.radius) <= loss * ref.radius

    def test_commutator_matches_the_inverse_route(self):
        for r in self.radii():
            pair = rectangular_generators(r)
            f, g = normalized(pair.A), normalized(pair.B)
            old = _entries(compose(compose(f, g), compose(inverse(f), inverse(g))))
            new = _entries(commutator(pair.A, pair.B))
            loss = 8.0 * max(r * r, 1.0 / (r * r)) * self.EPS
            assert np.max(np.abs(new - old)) <= loss * np.max(np.abs(old))

    def test_each_generator_is_normalized_once(self, monkeypatch):
        # one square root per generator's determinant, and the only
        # record built is the commutator returned; the vertices take
        # neither
        counts = {"sqrt": 0, "built": 0}
        post_init = MoebiusMap.__post_init__

        def counted_sqrt(z):
            counts["sqrt"] += 1
            return cmath.sqrt(z)

        def counted_post_init(m):
            counts["built"] += 1
            post_init(m)

        pair = rectangular_generators(1.3)
        monkeypatch.setattr(torusgroup, "cmath", SimpleNamespace(sqrt=counted_sqrt))
        monkeypatch.setattr(MoebiusMap, "__post_init__", counted_post_init)
        commutator(pair.A, pair.B)
        assert counts == {"sqrt": 2, "built": 1}
        counts.update(sqrt=0, built=0)
        tangency_vertices(pair)
        assert counts == {"sqrt": 0, "built": 0}


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of complex values, two per value."""
    return np.array([complex(v) for v in values]).view(np.int64)


class TestRecordFreeIdentities:
    """commutator and tangency_vertices, built from plain complex
    entries, give the record route's values bit for bit: seven
    ``MoebiusMap``s per commutator and four ``IsometricCircle``s per
    vertex set (``commutator_by_records``, ``tangency_vertices_by_circles``).
    """

    @staticmethod
    def rect_radii():
        top = math.log2(torusgroup._RECT_MAX)
        exps = np.random.default_rng(36).uniform(-top, top, 20000)
        return np.concatenate(([-top, top], exps, [-1.0, 0.0, 1.0]))

    @staticmethod
    def assert_same(got, want):
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_rectangular_commutator(self):
        got, want = [], []
        for e in self.rect_radii():
            pair = rectangular_generators(2.0**e)
            got += _entries(commutator(pair.A, pair.B)).tolist()
            want += _entries(commutator_by_records(pair.A, pair.B)).tolist()
        self.assert_same(got, want)

    def test_sheared_commutator(self):
        rng = np.random.default_rng(37)
        top = math.log2(torusgroup._SHEAR_R_MAX)
        corners = [(r, lam) for r in (2.0**-top, 1.0, 2.0**top) for lam in (0.0, 1.0, 16.0)]
        points = corners + list(zip(2.0 ** rng.uniform(-top, top, 4000),
                                    torusgroup._SHEAR_LAM_MAX * rng.random(4000)))
        got, want = [], []
        for r, lam in points:
            u, v = nonrectangular_pair(r, lam)
            for f, g in ((u, v), (v, u)):
                got += _entries(commutator(f, g)).tolist()
                want += _entries(commutator_by_records(f, g)).tolist()
        self.assert_same(got, want)

    def test_vertices(self):
        got, want = [], []
        for e in self.rect_radii():
            pair = rectangular_generators(2.0**e)
            got += tangency_vertices(pair)
            want += tangency_vertices_by_circles(pair)
        self.assert_same(got, want)

    @pytest.mark.parametrize("change", [
        {"A": MoebiusMap(2.0, 1.0, 0.0, 0.5)}, {"B": MoebiusMap(2.0, 1.0, 0.0, 0.5)},
        {"s": 1.5}, {"r": 3.0}, {"s": 1.5, "A": MoebiusMap(2.0, 1.0, 0.0, 0.5)},
    ], ids=["A-fixes-infinity", "B-fixes-infinity", "s", "r", "both"])
    def test_same_errors(self, change):
        pair = dataclasses.replace(rectangular_generators(2.0), **change)
        with pytest.raises(ValueError) as want:
            tangency_vertices_by_circles(pair)
        with pytest.raises(ValueError) as got:
            tangency_vertices(pair)
        assert str(got.value) == str(want.value)


class TestQuadCrossRatio:
    def test_known_radii(self):
        for r, want in ((1.0, 2.0), (2.0, 5.0)):
            raw = complex(cross_ratio(*tangency_vertices(rectangular_generators(r))).value)
            assert raw.real == pytest.approx(want, rel=1e-15)
            assert abs(raw.imag) < 1e-15

    def test_vertex_cross_ratio_is_accurate_at_every_radius(self):
        # Centres from the raw entries, radii from the pair and each
        # tangency point stepped from the smaller circle keep the vertex
        # cross ratio within a few ulps of 1 + r**2 over the whole range
        # (worst seen 4.8 eps over 2 * 10**4 log-uniform radii); stepping
        # from the larger circle lost about 4 r**2 eps (2.4e-2 at 2**23).
        top = math.log2(torusgroup._RECT_MAX)
        exps = np.concatenate(([-top, top], np.random.default_rng(29).uniform(-top, top, 4000)))
        eps = np.finfo(float).eps
        for e in exps:
            r = 2.0**e
            raw = complex(cross_ratio(*tangency_vertices(rectangular_generators(r))).value)
            want = 1 + Fraction(r) ** 2
            assert abs(Fraction(raw.real) - want) <= 8 * eps * want, r
            assert abs(raw.imag) <= 8 * eps * want, r

    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    def test_vertex_recomputation(self, r):
        pair = rectangular_generators(r)
        verts = tangency_vertices(pair)
        raw = cross_ratio(*verts).value
        assert complex(raw).real == pytest.approx(quad_cross_ratio(r), abs=1e-10)
        assert abs(complex(raw).imag) < 1e-10

    def test_nontangent_rejected(self):
        pair = rectangular_generators(1.5)
        broken = dataclasses.replace(pair, s=1.5)
        with pytest.raises(ValueError):
            tangency_vertices(broken)


class TestNonrectangularPair:
    def test_zero_twist_degenerates(self):
        r = 1.9
        pair = rectangular_generators(r)
        u, v = nonrectangular_pair(r, 0.0)
        np.testing.assert_allclose(as_mat(u), as_mat(pair.B), atol=1e-12)
        np.testing.assert_allclose(as_mat(v), as_mat(pair.A), atol=1e-12)

    def test_trace_displays(self):
        u, v = nonrectangular_pair(1.0, 1.0)
        assert complex(tr(u) ** 2 - 4).real == pytest.approx(12.0, rel=1e-12)
        assert complex(tr(v) ** 2 - 4).real == pytest.approx(12.0, rel=1e-12)
        rng = np.random.default_rng(2)
        for _ in range(25):
            r = math.exp(rng.uniform(-2, 2))
            lam = math.exp(rng.uniform(-2, 2))
            u, v = nonrectangular_pair(r, lam)
            want_u = 4.0 * (r * r + 1.0) * (lam * lam + 1.0) - 4.0
            want_v = 4.0 * (1.0 / r**2 + 1.0) * (lam * lam + 1.0) - 4.0
            assert complex(tr(u) ** 2 - 4).real == pytest.approx(want_u, rel=1e-11)
            assert complex(tr(v) ** 2 - 4).real == pytest.approx(want_v, rel=1e-11)

    def test_unit_determinants(self):
        u, v = nonrectangular_pair(0.45, 2.2)
        assert complex(u.det()) == pytest.approx(1.0, abs=1e-13)
        assert complex(v.det()) == pytest.approx(1.0, abs=1e-13)

    def test_fixed_points_antipodal_on_circle(self):
        for r, lam in ((1.3, 0.6), (0.2, 3.0), (5.0, 0.01)):
            u, _ = nonrectangular_pair(r, lam)
            z = cmath.sqrt(u.b / u.c)
            for zf in (z, -z):
                assert abs(abs(zf) - 1.0) < 1e-10
                assert apply(u, zf) == pytest.approx(zf, abs=1e-10)

    def test_composition_route(self):
        """u and v factor through half-translation conjugation.

        Conjugating the opposite-type sheared generator (twist 1/lam)
        by the half-translation along the other generator's axis
        reproduces the closed-form matrices; note the maps swap type,
        matching the zero-twist degeneration.
        """

        def sqf(r):
            d = 1.0 / math.sqrt(r * math.sqrt(r * r + 1.0) - r * r)
            o = math.sqrt(math.sqrt(1.0 / r**2 + 1.0) - 1.0)
            return np.array([[d, o], [o, d]]) / math.sqrt(2.0)

        def sqg(s):
            d = 1.0 / math.sqrt(s * (math.sqrt(s * s + 1.0) - s))
            o = math.sqrt(math.sqrt(1.0 / s**2 + 1.0) - 1.0)
            return np.array([[d, 1j * o], [-1j * o, d]]) / math.sqrt(2.0)

        def sheared_a(t):
            d = math.sqrt(1.0 / t**2 + 1.0)
            return np.array([[d, 1.0 / t], [1.0 / t, d]])

        def sheared_b(t):
            d = math.sqrt(1.0 / t**2 + 1.0)
            return np.array([[d, 1j / t], [-1j / t, d]])

        rng = np.random.default_rng(8)
        for _ in range(50):
            r = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            lam = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
            u, v = nonrectangular_pair(r, lam)
            sf, sg = sqf(r), sqg(1.0 / r)
            np.testing.assert_allclose(sg @ sheared_a(1.0 / lam) @ sg,
                                       as_mat(u), atol=2e-11)
            np.testing.assert_allclose(sf @ sheared_b(1.0 / lam) @ sf,
                                       as_mat(v), atol=2e-11)


    @pytest.mark.parametrize("r", [2.0**-10, 1.0, 2.0**10])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 16.0])
    def test_edges_of_the_box_build(self, r, lam):
        u, v = nonrectangular_pair(r, lam)
        for m in (u, v):
            assert abs(complex(m.det()) - 1.0) <= 1e-6
        assert_sheared_parabolic(r, lam)

    @pytest.mark.parametrize("r, lam, name", [
        (math.nextafter(2.0**10, math.inf), 1.0, "r"),
        (math.nextafter(2.0**-10, 0.0), 1.0, "r"),
        (1.0, math.nextafter(16.0, math.inf), "lam"),
        (1.0, -5e-324, "lam"),
        # determinant 4, singular maps, a commutator trace of -64 and
        # of -1.9375 before the box
        (1.0, 1e8, "lam"), (1e8, 0.0, "r"), (1e8, 1.0, "r"), (1e-8, 1.0, "r"),
        (1.0, 1e4, "lam"), (2.0**22, 1.0, "r"),
        (math.nan, 1.0, "r"), (1.0, math.nan, "lam"),
    ])
    def test_outside_the_box_names_the_argument(self, r, lam, name):
        with pytest.raises(ValueError, match=rf"\b{name} = .* is outside \["):
            nonrectangular_pair(r, lam)

    def test_commutator_is_parabolic_across_the_box(self):
        rng = np.random.default_rng(13)
        for _ in range(4000):
            r = 2.0 ** rng.uniform(-10.0, 10.0)
            lam = 2.0 ** rng.uniform(-20.0, 4.0)
            assert_sheared_parabolic(r, lam)


class TestGeneralCommutator:
    def test_parabolic_iff_equal_twists(self):
        assert commutator_trace(1.0, 1.0) == pytest.approx(-4.0, rel=1e-14)
        assert commutator_trace(3.0, 3.0) == pytest.approx(-4.0, rel=1e-14)
        assert commutator_trace(1.0, 2.0) != pytest.approx(-4.0, abs=0.1)

    def test_equal_twists_give_exactly_minus_four(self):
        # the expanded closed form cancelled to -0.0 at (1e-4, 1e-4)
        for t in (1e-70, 1e-20, 1e-5, 1e-4, 1e-3, 0.7, 1.0, 3.0, 1e30):
            assert commutator_trace(t, t) == -4.0

    @pytest.mark.parametrize("lam, mu", [(1e-3, 2e-3), (1e-4, 2e-4)])
    def test_small_twists_match_the_closed_form_in_extended_precision(self, lam, mu):
        with mpmath.workdps(50):
            l2, m2 = mpmath.mpf(lam) ** 2, mpmath.mpf(mu) ** 2
            num = l2 * (m2 + 1) - 2 * mpmath.sqrt((l2 + 1) * (m2 + 1)) + m2 + 2
            want = float(-4 * num / (l2 * m2))
        assert commutator_trace(lam, mu) == pytest.approx(want, rel=1e-13)

    def test_matrix_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = math.exp(rng.uniform(-2.0, 2.0))
            lam = math.exp(rng.uniform(-1.5, 1.5))
            mu = math.exp(rng.uniform(-1.5, 1.5))
            u, _ = nonrectangular_pair(r, 1.0 / lam)
            _, v = nonrectangular_pair(r, 1.0 / mu)
            got = complex(tr(commutator(u, v))) - 2.0
            want = commutator_trace(lam, mu)
            assert got.real == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert abs(got.imag) < 1e-9

    def test_parabolicity_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            r = math.exp(rng.uniform(-2.5, 2.5))
            pair = rectangular_generators(r)
            assert abs(complex(tr(commutator(pair.A, pair.B))) + 2.0) < 2e-9
            lam = math.exp(rng.uniform(-2.0, 2.0))
            u, v = nonrectangular_pair(r, lam)
            assert abs(complex(tr(commutator(u, v))) + 2.0) < 2e-9


class TestComposeInverse:
    def test_inverse_roundtrip(self):
        m = MoebiusMap(3.0 + 1j, 2.0, 1.0 - 0.5j, 1.0)
        ident = compose(m, inverse(m))
        z = 0.3 + 0.2j
        assert apply(ident, z) == pytest.approx(z, abs=1e-12)

    def test_compose_matches_matrix_product(self):
        f = MoebiusMap(1.0, 2.0, 0.25, 1.0)
        g = MoebiusMap(0.0, 1.0, -1.0, 0.3)
        z = 1.7 - 0.4j
        assert apply(compose(f, g), z) == pytest.approx(apply(f, apply(g, z)), abs=1e-12)


class TestAngleRelation:
    def test_threshold_square_case(self):
        ell = 2.0 * math.asinh(1.0)
        rel = angle_relation(ell, ell)
        assert rel.theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert rel.quad_cr == pytest.approx(2.0, rel=1e-12)

    def test_direct_evaluation(self):
        rel = angle_relation(3.0, 3.0)
        assert rel.theta == pytest.approx(math.asin(1.0 / math.sinh(1.5) ** 2),
                                          rel=1e-12)
        assert rel.quad_cr == pytest.approx(2.0, rel=1e-12)

    def test_equal_lengths_give_cr_two(self):
        assert angle_relation(2.0, 2.0).quad_cr == pytest.approx(2.0, rel=1e-14)

    def test_short_lengths_cannot_close(self):
        with pytest.raises(ValueError):
            angle_relation(0.5, 0.5)
        with pytest.raises(ValueError):
            angle_relation(-1.0, 2.0)

    @pytest.mark.parametrize("ell1, ell2, message", [
        (math.nan, 1.0, "ell1 = nan is not a number"),
        (1.0, math.nan, "ell2 = nan is not a number"),
        (2.0, -1.0, "ell2 = -1.0 is not positive"),
    ])
    def test_bad_length_is_named(self, ell1, ell2, message):
        # a nan used to be reported as exceeding 700
        with pytest.raises(ValueError, match=re.escape(message)):
            angle_relation(ell1, ell2)


class TestSampleTorus:
    def test_invariant_and_ranges(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            s = sample_torus(rng)
            assert s.x_sigma > 0 and s.y_sigma > 0
            assert 0.0 < s.theta <= math.pi / 2
            closure = (math.sin(s.theta) * math.sinh(0.5 * s.x_sigma)
                       * math.sinh(0.5 * s.y_sigma))
            assert closure == pytest.approx(1.0, rel=1e-12)

    def test_equals_the_array_path(self):
        # sample_torus takes each attempt's two lengths from one
        # random((2, 4)) on Python floats; the same rows, read from a twin
        # generator in one draw and pushed through mc's construction as
        # arrays (half-angle tangents in place, the canonical cross ratio
        # of their sorted gaps, the length dictionary), give the same
        # tori bit for bit, and sample_torus reads 8 doubles per attempt
        rng = np.random.default_rng(2113)
        got = []
        for _ in range(2000):
            s = sample_torus(rng)
            got.append((s.x_sigma, s.y_sigma, s.theta))
            assert all(type(v) is float for v in got[-1])
        u = np.random.default_rng(2113).random((8000, 2, 4))
        t = np.ascontiguousarray(u[..., :3].reshape(-1, 3).T)
        t *= math.pi
        q = mc._canonical_cross_ratio(np.tan(t, out=t))
        coin = u[..., 3].reshape(-1)
        lengths = np.where(coin < 0.5, _short_length(q), _dual_length(q)).reshape(-1, 2)
        want, attempts = [], 0
        for (x, y), (qx, qy) in zip(lengths.tolist(), q.reshape(-1, 2).tolist()):
            attempts += 1
            if math.isinf(qx) or math.isinf(qy):
                continue
            prod = math.sinh(0.5 * x) * math.sinh(0.5 * y)
            if prod >= 1.0:
                want.append((x, y, math.asin(min(1.0 / prod, 1.0))))
                if len(want) == len(got):
                    break
        np.testing.assert_array_equal(np.array(got).view(np.int64),
                                      np.array(want).view(np.int64))
        assert rng.random() == np.random.default_rng(2113).random(8 * attempts + 1)[-1]

    @pytest.mark.parametrize("row", [0, 1])
    def test_zero_gap_is_redrawn(self, row):
        # a repeated angle makes one gap 0 and Q infinite: the attempt is
        # redrawn, and the torus is the second attempt's
        first = np.array([[0.25, 0.6, 0.9, 0.3], [0.1, 0.45, 0.8, 0.7]])
        first[row, 1] = first[row, 0]
        second = np.array([[0.05, 0.35, 0.85, 0.9], [0.2, 0.55, 0.7, 0.6]])
        stub = _Rows([first, second])
        s = sample_torus(stub)
        assert stub.rows == []
        t = second[:, :3].T * math.pi
        x, y = _dual_length(mc._canonical_cross_ratio(np.tan(t))).tolist()
        assert (s.x_sigma, s.y_sigma) == (x, y)
        assert s.theta == math.asin(min(1.0 / (math.sinh(0.5 * x) * math.sinh(0.5 * y)), 1.0))

    def test_deterministic_under_seed(self):
        a = sample_torus(77)
        b = sample_torus(77)
        assert (a.x_sigma, a.y_sigma, a.theta) == (b.x_sigma, b.y_sigma, b.theta)


class _Rows(np.random.Generator):
    """A generator whose random((2, 4)) returns the given arrays in turn."""

    def __init__(self, rows):
        super().__init__(np.random.PCG64(0))
        self.rows = list(rows)

    def random(self, size):
        assert size == (2, 4)
        return self.rows.pop(0)


@pytest.mark.parametrize("call, name", [
    (lambda: rectangular_generators(1e-170), "r"),
    (lambda: rectangular_generators(1e200), "r"),
    (lambda: nonrectangular_pair(1e-200, 0.5), "r"),
    (lambda: nonrectangular_pair(1.0, 1e200), "lam"),
    (lambda: angle_relation(800.0, 1.0), "ell1"),
    (lambda: angle_relation(1.0, 800.0), "ell2"),
], ids=["rect-tiny", "rect-huge", "nonrect-tiny", "nonrect-huge-twist",
        "angle-long-1", "angle-long-2"])
def test_extreme_finite_inputs_raise_value_error(call, name):
    # squares and hyperbolic functions of these leave the doubles; the
    # error is a ValueError that names the offending argument
    with pytest.raises(ValueError, match=rf"\b{name} = "):
        call()
