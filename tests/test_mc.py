"""Monte Carlo cross-checks: determinism, KS agreement, summaries."""
from __future__ import annotations

import csv
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from oracles import (canonical_gap_ratio_mpmath, circle_cr_by_sines, circle_cr_condition,
                     circle_cr_mpmath, orbit_images)
from punctorus import cli, modmap
from punctorus.closedform import _BLOCK, LENGTH_THRESHOLD, quad_cr_median, sample_quad_cr_values
from punctorus.mc import (
    CURVES,
    LAWS,
    EmpiricalSummary,
    McConfig,
    run_law,
    _CHUNK,
    _HIST_RANGE,
    _KS_SLACK,
    _KS_STRIDE,
    _canonical_cross_ratio,
    _chunk_rng,
    _half_angle_tangents,
    _ks_distance,
    _sample,
    _sample_chunk,
    _sd,
    _sorted_quantile,
    _summary,
)

SEED = 20260819


def cfg(law: str, n: int = 100_000, workers: int = 1) -> McConfig:
    return McConfig(n_samples=n, seed=SEED, workers=workers, law=law)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(n_samples=10, seed=1, workers=0)
        with pytest.raises(ValueError):
            McConfig(n_samples=10, seed=1, law="bogus")

    @pytest.mark.parametrize("n", [1.5, 10.0, "10"])
    def test_sample_count_must_be_an_integer(self, n):
        # 1.5 used to pass here and fail inside numpy in run_law
        with pytest.raises(ValueError, match=r"n_samples = .* is not an integer"):
            McConfig(n_samples=n, seed=1)
        assert McConfig(n_samples=np.int64(10), seed=1).n_samples == 10

    @pytest.mark.parametrize("workers", [None, 1.5, "2"])
    def test_worker_count_must_be_an_integer(self, workers):
        # None raised TypeError from the comparison and 1.5 passed
        with pytest.raises(ValueError, match=r"workers = .* is not an integer"):
            McConfig(n_samples=10, seed=1, workers=workers)
        assert McConfig(n_samples=10, seed=1, workers=np.int64(2)).workers == 2

    @pytest.mark.parametrize("seed", [None, 1.5, -1, 2**128])
    def test_seed_must_be_a_128_bit_key(self, seed):
        # identical configs must give identical outputs, so no OS entropy
        # (None) and no silent rounding (1.5)
        with pytest.raises(ValueError, match=r"seed = .* is not an integer in \[0, 2\*\*128\)"):
            McConfig(n_samples=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_run(self, seed):
        assert run_law(McConfig(n_samples=10, seed=seed, law="star")).seed == seed

    def test_law_roster(self):
        assert set(LAWS) == {"crossratio_full", "quad_cr", "length", "star",
                             "modulus", "teich"}


class TestLawCurves:
    INTERVALS = {
        "crossratio_full": [(-3.0, -0.5), (0.2, 0.8), (1.5, 6.0)],
        "quad_cr": [(2.0, 3.0), (3.0, 10.0), (10.0, 100.0)],
        "length": [(0.1, 0.5), (0.2, 0.8), (1.0, LENGTH_THRESHOLD)],
        "length_dual": [(0.2, 0.8), (1.0, 3.0), (2.0, 6.0)],
        "star": [(-3.0, -1.0), (-0.5, 2.0), (1.0, 10.0)],
        "modulus": [(1.0, 1.5), (1.5, 4.0), (4.0, 20.0)],
        "teich": [(0.0, 0.5), (0.5, 1.5), (1.5, 3.0)],
    }

    def test_every_sampled_law_has_curves(self):
        assert set(LAWS) | {"length_dual"} == set(CURVES) == set(self.INTERVALS)

    @pytest.mark.parametrize("law", sorted(INTERVALS))
    def test_pdf_integrates_to_cdf_differences(self, law):
        # modulus and teich read the default table
        pdf, cdf = CURVES[law]
        for a, b in self.INTERVALS[law]:
            mass, _ = quad(lambda t: float(np.asarray(pdf(np.array([t])))[0]),
                           a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
            fa, fb = np.asarray(cdf(np.array([a, b])))
            assert mass == pytest.approx(fb - fa, abs=1e-9)

    def test_length_is_the_shortest_branch(self):
        cdf = CURVES["length"][1]
        assert float(cdf(np.array([LENGTH_THRESHOLD]))[0]) == pytest.approx(1.0, abs=1e-12)
        assert float(cdf(np.array([0.9992969432455838]))[0]) == pytest.approx(0.5, abs=1e-12)
        assert float(cdf(np.array([0.0]))[0]) == 0.0
        full = CURVES["length_dual"][1]
        assert float(full(np.array([LENGTH_THRESHOLD]))[0]) == pytest.approx(0.5, abs=1e-12)

    def test_cdfs_stay_in_the_unit_interval_at_the_support_edge(self):
        # each edge value is exact, not a rounding of the closed form
        quad_cr, length = CURVES["quad_cr"][1], CURVES["length"][1]
        assert quad_cr(1.5) == quad_cr(2.0) == 0.0
        for x in (LENGTH_THRESHOLD, 3.0):
            assert length(x) == 1.0
            assert type(length(x)) is float

    # left end of each law's support; every curve is 0 to its left
    LEFT = {"crossratio_full": -np.inf, "quad_cr": 2.0, "length": 0.0,
            "length_dual": 0.0, "star": -np.inf, "modulus": 1.0, "teich": 0.0}
    # any float array: nan, +-inf and subnormals included, edges mixed in
    ANY_FLOATS = hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=12),
        elements=st.floats(width=64) | st.sampled_from(
            [0.0, -0.0, 1.0, 2.0, LENGTH_THRESHOLD, 5e-324, -5e-324, 400.0, 1e155]))

    @pytest.mark.parametrize("law", sorted(LEFT))
    @settings(deadline=None)
    @given(x=ANY_FLOATS)
    @example(x=np.array(2.0))
    def test_curves_on_any_float_array(self, law, x, cr_table):
        pdf, cdf = CURVES[law]
        table = (cr_table,) if law in ("modulus", "teich") else ()
        p, c = np.asarray(pdf(x, *table)), np.asarray(cdf(x, *table))
        nan = np.isnan(x)
        for out in (p, c):
            assert out.shape == x.shape
            assert np.array_equal(np.isnan(out), nan)
        ok, left = ~nan, x < self.LEFT[law]
        poles = ((x == 0.0) | (x == 1.0)) if law == "crossratio_full" else np.zeros_like(ok)
        assert np.all(p[ok] >= 0.0) and np.array_equal(np.isinf(p), poles)
        assert np.all((c[ok] >= 0.0) & (c[ok] <= 1.0))
        assert np.all(p[left] == 0.0) and np.all(c[left] == 0.0)
        assert np.all(np.diff(np.asarray(cdf(np.sort(x[ok]), *table))) >= 0.0)
        if x.ndim == 0:
            # a scalar in gives a float out, the 1-element array's value
            for curve in (pdf, cdf):
                got = curve(x, *table)
                assert type(got) is float
                np.testing.assert_array_equal(got, curve(x.reshape(1), *table)[0])


class TestDeterminism:
    def test_worker_count_does_not_change_the_stream(self):
        runs = [run_law(cfg("quad_cr", workers=w)) for w in (1, 3, 8)]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].counts, other.counts)
            assert runs[0].ks_distance == other.ks_distance
            assert runs[0].stats == other.stats

    def test_seed_controls_everything(self):
        a = run_law(McConfig(n_samples=20_000, seed=3, law="length"))
        b = run_law(McConfig(n_samples=20_000, seed=3, law="length"))
        c = run_law(McConfig(n_samples=20_000, seed=4, law="length"))
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.ks_distance == b.ks_distance
        assert np.any(a.counts != c.counts)

    def test_partial_final_chunk(self):
        # values land in the histogram clipped, so counts always total n
        out = run_law(McConfig(n_samples=(1 << 14) + 17, seed=9, law="star"))
        assert out.counts.sum() == out.n

    def test_single_sample(self):
        out = run_law(McConfig(n_samples=1, seed=2, law="quad_cr"))
        assert out.counts.sum() == 1

    @pytest.mark.parametrize("seed", [0, 7, 2**100 + 3])
    def test_each_chunk_has_its_own_keyed_stream(self, seed):
        # chunk c draws from PCG64DXSM seeded by the seed's SeedSequence
        # spawned at key (c,), whatever the other chunks hold
        for c, count in ((0, _CHUNK), (1, 1001), (5, 1)):
            u = np.random.Generator(np.random.PCG64DXSM(
                np.random.SeedSequence(seed, spawn_key=(c,)))).random(count)
            want = np.tan(math.pi * u)
            got = _sample_chunk("star", seed, c, count, None)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("law", LAWS)
    def test_a_larger_run_starts_with_a_smaller_one(self, law):
        small = _sample(law, 5, _CHUNK, None)
        large = _sample(law, 5, 3 * _CHUNK + 5, None)
        np.testing.assert_array_equal(large[:_CHUNK].view(np.int64), small.view(np.int64))
        assert not np.array_equal(large[_CHUNK:2 * _CHUNK], small)

    @pytest.mark.parametrize("law", LAWS)
    def test_numpy_and_python_integer_seeds_agree(self, law):
        want = _sample(law, 11, _CHUNK + 3, None)
        for seed in (np.int64(11), np.uint64(11)):
            got = _sample(law, seed, _CHUNK + 3, None)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestAgainstClosedForm:
    @pytest.mark.parametrize("law", ["crossratio_full", "quad_cr", "length",
                                     "star"])
    def test_ks_distance(self, law):
        out = run_law(cfg(law))
        assert out.ks_distance < 0.005

    def test_ks_shrinks_with_sample_size(self):
        small = run_law(cfg("quad_cr", n=10_000))
        large = run_law(cfg("quad_cr", n=1_000_000))
        assert large.ks_distance < small.ks_distance

    def test_quad_median(self):
        out = run_law(cfg("quad_cr"))
        assert out.stats["median"] == pytest.approx(quad_cr_median(), abs=0.05)

    def test_full_law_median_and_orbit_mass(self):
        out = run_law(cfg("crossratio_full"))
        assert out.stats["median"] == pytest.approx(0.5, abs=0.01)
        values = _sample_chunk("crossratio_full", SEED, 0, 1 << 14, None)
        assert np.mean(values >= 2.0) == pytest.approx(1.0 / 6.0, abs=0.01)

    def test_star_location_and_scale(self):
        out = run_law(cfg("star"))
        assert out.stats["median"] == pytest.approx(0.0, abs=0.01)
        assert out.stats["iqr"] == pytest.approx(2.0, abs=0.02)

    def test_length_moments(self):
        out = run_law(cfg("length", n=1_000_000))
        assert out.stats["mean"] == pytest.approx(0.9841540409, abs=0.005)
        assert out.stats["median"] == pytest.approx(0.9992969432, abs=0.005)

    def test_teich_channel(self, cr_table):
        out = run_law(cfg("teich", n=65_536), table=cr_table)
        assert out.ks_distance < 0.01
        assert out.stats["median"] == pytest.approx(0.83187, abs=0.02)
        assert out.bin_edges[0] == 0.0

    def test_modulus_channel(self, cr_table):
        out = run_law(cfg("modulus", n=65_536), table=cr_table)
        assert out.ks_distance < 0.01
        assert out.stats["median"] == pytest.approx(math.exp(0.83187),
                                                    rel=0.03)


def _circle_angles(seed: int, chunk: int, count: int) -> np.ndarray:
    """The circle samplers' draw as rows of four angles: th_a = pi, the
    pinned point, then the three free angles of the (3, count) draw."""
    free = _chunk_rng(seed, chunk).random((3, count)) * (2.0 * math.pi)
    return np.column_stack((np.full(count, math.pi), free.T))


def _sine_route_sample(law: str, seed: int, n: int) -> np.ndarray:
    """A crossratio_full or quad_cr sample by the half-angle sine route."""
    parts = []
    for c, start in enumerate(range(0, n, _CHUNK)):
        cr = circle_cr_by_sines(_circle_angles(seed, c, min(_CHUNK, n - start)))
        if law == "quad_cr":
            with np.errstate(divide="ignore", invalid="ignore"):
                cr = np.max(orbit_images(cr), axis=0)
        parts.append(cr)
    return np.concatenate(parts)


class TestHalfAngleTangents:
    """The circle cross ratios from tangents, against the sine route.

    Both routes compute the cross ratio of the same three float angles
    and a fourth at pi, which the tangent route reads exactly as an
    infinite tangent and the sine route (and mpmath) as fl(pi); each
    stays within eps kappa (``circle_cr_condition``, over the three free
    angles) of the exact value, so they differ only where kappa is
    large: on near-coincident quadruples.  fl(pi) lies 1.2e-16 from pi,
    and the four partials of log CR sum to zero, so reading fl(pi) for
    pi moves the cross ratio by under 0.2 eps kappa.
    """

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("seed", [7, 523])
    def test_agrees_with_the_sine_route(self, seed):
        th = _circle_angles(seed, 0, _CHUNK)
        kappa = circle_cr_condition(th)
        want = circle_cr_by_sines(th.copy())
        got = _sample_chunk("crossratio_full", seed, 0, _CHUNK, None)
        assert np.all(np.abs(got - want) <= 4.0 * self.EPS * kappa * np.abs(want))
        assert np.count_nonzero(got != want) > 0  # two routes, not one

    @pytest.mark.parametrize("seed", [7, 523])
    def test_both_routes_against_mpmath(self, seed):
        th = _circle_angles(seed, 0, _CHUNK)
        kappa = circle_cr_condition(th)
        tangents = _sample_chunk("crossratio_full", seed, 0, _CHUNK, None)
        sines = circle_cr_by_sines(th.copy())
        # the 60 worst-conditioned draws, the 60 where the routes differ
        # most, and 100 more
        gap = np.abs(tangents / sines - 1.0)
        pick = np.unique(np.concatenate([np.argsort(kappa)[-60:], np.argsort(gap)[-60:],
                                         np.arange(100)]))
        exact = circle_cr_mpmath(th[pick])
        bound = 4.0 * self.EPS * kappa[pick] * np.abs(exact)
        assert np.all(np.abs(tangents[pick] - exact) <= bound)
        assert np.all(np.abs(sines[pick] - exact) <= bound)

    @pytest.mark.parametrize("seed, chunk, count", [(7, 0, _CHUNK), (523, 3, _CHUNK),
                                                    (11, 1, 1001), (5, 0, 1)])
    def test_star_draw_is_unchanged(self, seed, chunk, count):
        th = _chunk_rng(seed, chunk).random(count) * (2.0 * math.pi)
        want = np.tan(0.5 * th)
        got = _sample_chunk("star", seed, chunk, count, None)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_half_angle_is_the_halved_full_angle(self):
        # U pi is (U (2 pi)) 0.5 bit for bit: fl(2 pi) = 2 fl(pi), and
        # scaling by 2 or 0.5 is exact for every U in [0, 1)
        u = np.concatenate((_chunk_rng(13, 0).random(1 << 20),
                            [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]))
        want = u * (2.0 * math.pi)
        want *= 0.5
        np.testing.assert_array_equal((u * math.pi).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("seed", [7, 523])
    def test_quad_cr_is_the_canonical_gap_ratio(self, seed):
        # the canonical cross ratio of the drawn float tangents, exactly:
        # 1 + max(g)/min(g) over the sorted gaps, at 40 digits; the 100
        # draws where the gap route and the stacked orbit max differ
        # most, where the orbit route cancels near lam = 1, and 300 more
        t = _half_angle_tangents(_chunk_rng(seed, 2), (3, _CHUNK))
        got = _sample_chunk("quad_cr", seed, 2, _CHUNK, None)
        cr = _sample_chunk("crossratio_full", seed, 2, _CHUNK, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            orbit_max = np.max(orbit_images(cr), axis=0)
        gap = np.abs(got / orbit_max - 1.0)
        pick = np.unique(np.concatenate([np.argsort(gap)[-100:], np.arange(300)]))
        exact = canonical_gap_ratio_mpmath(t[:, pick].T)
        assert np.all(np.abs(got[pick] - exact) <= 2.0 * self.EPS * exact)
        assert gap.max() > 2.0 * self.EPS  # the orbit route is the worse one here

    def test_equal_tangents_give_inf(self):
        # each column is one draw (t_b, t_c, t_d), in every order
        t = np.array([[0.5, 0.5, 1.0, -3.0, -3.0, 0.0, 2.0, 1.0, 7.0, 0.5],
                      [0.5, 1.0, 0.5, 0.0, -3.0, 1.0, 0.0, 2.0, 7.0, 3.5],
                      [1.0, 0.5, 0.5, -3.0, 0.0, 2.0, 1.0, 0.0, 7.0, 1.5]])
        got = _canonical_cross_ratio(t.copy())
        assert np.all(np.isposinf(got[:5]))
        np.testing.assert_array_equal(got[5:], [2.0, 2.0, 2.0, np.nan, 3.0])

    @pytest.mark.parametrize("law", ["crossratio_full", "quad_cr"])
    def test_histogram_equals_the_sine_route(self, law):
        n, seed = 100_000, 7
        got = run_law(McConfig(n_samples=n, seed=seed, law=law))
        ks, counts, _, stats = _oracle_summary(_sine_route_sample(law, seed, n), law)
        np.testing.assert_array_equal(got.counts, counts)
        assert got.ks_distance == pytest.approx(ks, rel=0.0, abs=1e-15)
        assert got.stats["median"] == pytest.approx(stats["median"], rel=1e-15)


class TestSummaryEmission:
    def test_histogram_shape(self):
        out = run_law(McConfig(n_samples=50_000, seed=5, law="length"))
        assert out.counts.shape == (200,)
        assert out.bin_edges.shape == (201,)
        assert out.counts.sum() == out.n
        assert 0.0 <= out.stats["clipped_fraction"] < 0.01

    def test_csv_round_trip(self, tmp_path):
        out = run_law(McConfig(n_samples=30_000, seed=6, law="star"))
        header, body = out.rows()
        assert header == ("bin_left", "bin_right", "count", "density")
        path = tmp_path / "star.csv"
        assert cli.main(["sample", "--law", "star", "--n", "30000", "--seed", "6",
                         "--out", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(header)
        assert len(rows) == 201
        assert sum(int(r[2]) for r in rows[1:]) == out.n
        # 17 significant digits read back to the very doubles
        assert [(float(a), float(b), int(c), float(d)) for a, b, c, d in rows[1:]] == body
        width = float(rows[1][1]) - float(rows[1][0])
        assert float(rows[1][3]) == pytest.approx(
            int(rows[1][2]) / (out.n * width), rel=1e-12)

    def test_json_emission(self, tmp_path):
        out = run_law(McConfig(n_samples=10_000, seed=8, law="quad_cr"))
        doc = out.to_json_dict()
        assert doc["law"] == "quad_cr"
        assert doc["n"] == 10_000
        assert doc["seed"] == 8
        assert doc["ks"] == out.ks_distance
        assert doc["stats"]["median"] == out.stats["median"]
        path = tmp_path / "quad.json"
        assert cli.main(["sample", "--law", "quad_cr", "--n", "10000", "--seed", "8",
                         "--format", "json", "--out", str(path)]) == 0
        with open(path) as fh:
            assert json.load(fh) == json.loads(json.dumps(doc))

    def test_summary_is_frozen(self):
        out = run_law(McConfig(n_samples=1000, seed=1, law="star"))
        assert isinstance(out, EmpiricalSummary)
        with pytest.raises(Exception):
            out.law = "other"


def _oracle_summary(values, law, table=None):
    """The plain numpy definitions that ``_summary`` reproduces bit for bit."""
    xs = np.sort(values)
    curve = CURVES[law][1]
    f = np.asarray(curve(xs, table) if law in ("modulus", "teich") else curve(xs))
    n = len(xs)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    ks = max(upper.max(), lower.max()).item()
    lo, hi = _HIST_RANGE[law]
    counts, edges = np.histogram(np.clip(values, lo, hi), bins=200, range=(lo, hi))
    stats = {"median": float(np.median(values)),
             "clipped_fraction": float(np.mean((values < lo) | (values > hi)))}
    if law in ("length", "teich", "modulus"):
        stats["mean"] = float(values.mean())
    if law in ("length", "teich"):
        stats["sd"] = float(values.std())
    if law == "star":
        q1, q3 = np.quantile(values, [0.25, 0.75])
        stats["iqr"] = float(q3 - q1)
    return ks, counts, edges, stats


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_same_summary(got, want):
    ks, counts, edges, stats = got
    assert (math.isnan(ks) and math.isnan(want[0])) or _bits(ks) == _bits(want[0])
    assert counts.dtype == want[1].dtype
    np.testing.assert_array_equal(counts, want[1])
    np.testing.assert_array_equal(_bits(edges), _bits(want[2]))
    assert list(stats) == list(want[3])
    for key, value in stats.items():
        other = want[3][key]
        assert type(value) is float
        assert (math.isnan(value) and math.isnan(other)) or _bits(value) == _bits(other), key


class TestSortedSummary:
    """One sorted copy gives what the unsorted definitions give, bit for bit."""

    @staticmethod
    def pool(law: str) -> np.ndarray:
        """Every bin edge, an ulp either side of each range end, +-inf, nan, -0."""
        lo, hi = _HIST_RANGE[law]
        edges = np.linspace(lo, hi, 201)
        near = [np.nextafter(v, d) for v in (lo, hi) for d in (-np.inf, np.inf)]
        return np.concatenate([edges, near, [np.inf, -np.inf, np.nan, -0.0]])

    @pytest.mark.parametrize("law", ["star", "length", "teich"])
    @pytest.mark.parametrize("n", [1, 2, 3, 200, 201])
    def test_hand_built_samples(self, law, n, cr_table):
        pool = self.pool(law)
        finite = pool[np.isfinite(pool)]
        rng = np.random.default_rng(n)
        draws = [rng.choice(pool, n),                     # ties, inf and nan mixed in
                 rng.choice(finite, n),                   # no inf or nan
                 rng.choice(finite[:3], n),               # heavy ties at the range ends
                 rng.choice(finite[-3:], n)]
        for k in range(3):                                # +inf, -inf, nan, each first
            draws.append(np.resize(pool[-4 + k:-1], n))
        if n >= len(finite):
            draws.append(rng.permutation(finite)[:n])     # every edge exactly
        with np.errstate(invalid="ignore", over="ignore"):
            for values in draws:
                _assert_same_summary(_summary(values.copy(), law, cr_table),
                                     _oracle_summary(values, law, cr_table))

    @pytest.mark.parametrize("law", LAWS)
    def test_block_edges(self, law, cr_table):
        # the CDF and the KS gaps are taken one block of the sorted copy at
        # a time; -inf sorts into the first block, +inf and nan into the
        # last, which at 2^15 + 1 and 2 * 2^15 + 1 holds one value
        lo, hi = _HIST_RANGE[law]
        rng = np.random.default_rng(5)
        with np.errstate(invalid="ignore", over="ignore"):
            for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
                base = rng.uniform(lo - 0.5, hi + 0.5, n)
                draws = [base]
                for special in (np.nan, np.inf, -np.inf):
                    for where in (0, n - 1):
                        values = base.copy()
                        values[where] = special
                        draws.append(values)
                values = base.copy()
                values[[0, n // 2, n - 1]] = [np.inf, np.nan, -np.inf]
                draws.append(values)
                for values in draws:
                    _assert_same_summary(_summary(values.copy(), law, cr_table),
                                         _oracle_summary(values, law, cr_table))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.sampled_from([-np.inf, -1e308, -2.5, -0.0, 0.0, 0.5,
                                                1.0, 1e308, np.inf, np.nan])
                      | st.floats(allow_nan=True, allow_infinity=True)))
    @example(np.array([np.inf]))
    @example(np.array([np.nan]))
    @example(np.array([-0.0]))
    @example(np.array([1.0, np.inf]))
    @example(np.array([-np.inf, np.inf]))
    @example(np.array([-1e308, 1e308]))
    @example(np.array([2.0, np.nan]))
    @example(np.array([-np.inf, 0.0, np.inf]))
    @example(np.array([1.0, 1.0, 1.0]))
    @example(np.array([-1.0, 0.5, np.nan]))
    def test_star_quartiles_are_numpys(self, values):
        # numpy's 'linear' quantile on the sorted copy, ties, +-inf and nan
        # included, and at n = 1 the top index with gamma = 1
        xs = np.sort(values)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.quantile(xs, [0.25, 0.75])
        # np.quantile partitions a copy, which may swap a -0.0 and a 0.0
        # (they compare equal), so with both in xs it picks either sign
        zeros = np.signbit(xs[xs == 0.0])
        signed_zero_tie = zeros.any() and not zeros.all()
        for q, other in zip((0.25, 0.75), want.tolist()):
            got = _sorted_quantile(xs, q)
            assert type(got) is float
            assert ((math.isnan(got) and math.isnan(other))
                    or _bits(got) == _bits(other)
                    or (signed_zero_tie and got == other == 0.0))

    def test_every_edge_lands_in_its_own_bin(self):
        lo, hi = _HIST_RANGE["star"]
        edges = np.linspace(lo, hi, 201)
        _, counts, _, stats = _summary(edges.copy(), "star", None)
        assert counts.tolist() == [1] * 199 + [2]
        assert stats["clipped_fraction"] == 0.0

    @pytest.mark.parametrize("law", LAWS)
    def test_run_law_matches_the_oracle(self, law):
        # run_law passes no table on; modmap resolves None to its default
        n = 40_001
        table = modmap.default_table()
        out = run_law(McConfig(n_samples=n, seed=SEED, law=law))
        values = np.concatenate([
            _sample_chunk(law, SEED, c, min(_CHUNK, n - c * _CHUNK), table)
            for c in range(-(-n // _CHUNK))])
        _assert_same_summary((out.ks_distance, out.counts, out.bin_edges, out.stats),
                             _oracle_summary(values, law, table))

    @pytest.mark.parametrize("law", LAWS)
    def test_peak_memory(self, law):
        # the sample, sorted in place, plus the KS scratch (the CDF and
        # gaps at every 64th order statistic, then one block of candidate
        # spans at a time) and, for length and teich, the sd's one block
        # of squared deviations: 1.12-1.16 arrays measured for the laws
        # without an sd, 1.17 for modulus, 1.18 for length and 1.19 for
        # teich
        n = 1 << 20
        run_law(McConfig(n_samples=1000, seed=1, law=law))
        tracemalloc.start()
        try:
            run_law(McConfig(n_samples=n, seed=3, law=law))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 8 * n


class TestBlockwiseSd:
    """``_sd`` walks numpy's pairwise summation split, so it is
    ``values.std()`` bit for bit without a sample-sized temporary."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, (1 << 15) - 1, 1 << 15,
                                   (1 << 15) + 1, (1 << 16) + 3, 10**6 + 3])
    def test_equals_numpy_std(self, n):
        rng = np.random.default_rng(n)
        # heavy tails, a large offset over a small spread, and a sample's
        # own law, where the summation order moves the last bits
        for values in (rng.standard_cauchy(n), 7e3 + rng.random(n),
                       _sample("teich", 11, n, None)):
            assert _bits(_sd(values, float(values.mean()))) == _bits(values.std())

    @pytest.mark.parametrize("n", [1, 9, 129, (1 << 15) + 1, (1 << 16) + 3])
    @pytest.mark.parametrize("special", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_nan_and_inf(self, n, special):
        rng = np.random.default_rng(n)
        with np.errstate(invalid="ignore"):
            for where in (0, n // 2, n - 1):
                values = rng.standard_normal(n)
                values[where:where + len(special)] = special[:n - where]
                assert _bits(_sd(values, float(values.mean()))) == _bits(values.std())


    def test_leaves_no_reference_to_the_sample(self):
        # a reference cycle through the sample would keep it alive until
        # the next garbage collection, one more sample-sized array
        values = np.random.default_rng(4).standard_normal(3 * _BLOCK)
        ref = weakref.ref(values)
        _sd(values, float(values.mean()))
        del values
        assert ref() is None


class _CountingCdf:
    """A CDF that counts the points it is evaluated at."""

    def __init__(self, law: str):
        self.curve = CURVES[law][1]
        self.calls = 0

    def __call__(self, x):
        self.calls += len(x)
        return self.curve(x)


def _ulp_grid(centre: float, half: int = 3000) -> np.ndarray:
    """The 2 half + 1 consecutive doubles centred on centre."""
    down, up = [centre], [centre]
    for _ in range(half):
        down.append(math.nextafter(down[-1], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    return np.array(down[:0:-1] + up)


def _assert_pruned_ks(xs, law):
    """``_ks_distance`` equals the whole-array KS bit for bit, within the
    worst-case work; returns the CDF evaluations it made."""
    count = _CountingCdf(law)
    got = _ks_distance(xs, count)
    want = _oracle_summary(xs, law)[0]
    assert type(got) is float
    assert (math.isnan(got) and math.isnan(want)) or _bits(got) == _bits(want)
    n = len(xs)
    assert count.calls <= n + -(-n // _KS_STRIDE) + 1
    return count.calls


class TestPrunedKs:
    """KS scoring evaluates the CDF only on the spans where the maximum can lie."""

    # each law's branch junctions and support edges
    CENTRES = {
        "crossratio_full": (-7.3, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0),
        "quad_cr": (2.0, 5.0, 100.0),
        "length": (0.5, 1.0, LENGTH_THRESHOLD),
        "star": (0.5, 2.0),
        "modulus": (1.0, 2.2976, 50.0, 200.0),
        "teich": (0.0, 0.83187, 3.9),
    }

    @pytest.mark.parametrize("law", LAWS)
    def test_cdfs_fall_far_inside_the_slack(self, law):
        # the span bounds hold for an F that falls at most 1e-15 below its
        # running maximum; measured: 1.11e-16 for crossratio_full at 5 and
        # for length at 1, 0 for the other four laws, so the 1e-9 slack has
        # a margin of over 10^6
        curve = CURVES[law][1]
        for centre in self.CENTRES[law]:
            f = curve(_ulp_grid(centre))
            assert (np.maximum.accumulate(f) - f).max() <= 1e-15, centre
        assert 1e6 * 1e-15 <= _KS_SLACK
        # -0.0 and 0.0 sort in either order, and nan, which sorts last,
        # into the last anchor, must give nan
        zeros = curve(np.array([-0.0, 0.0]))
        assert zeros[0] == zeros[1]
        assert math.isnan(curve(np.array([np.nan]))[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 66, 127, 128, 129, 1000, _BLOCK + 1])
    def test_span_edges(self, n):
        rng = np.random.default_rng(n)
        for law in ("crossratio_full", "star", "length"):
            xs = np.sort(rng.uniform(*_HIST_RANGE[law], n))
            _assert_pruned_ks(xs, law)

    @pytest.mark.parametrize("case", ["cauchy_as_crossratio", "shifted_quad", "equal",
                                      "two_atoms", "uniform_as_star", "inf_nan"])
    def test_hostile_samples(self, case):
        n = 100_000
        rng = np.random.default_rng(17)
        if case == "cauchy_as_crossratio":
            law, values = "crossratio_full", rng.standard_cauchy(n)
        elif case == "shifted_quad":
            law, values = "quad_cr", sample_quad_cr_values(n, rng) + 0.5
        elif case == "equal":
            law, values = "crossratio_full", np.full(n, 0.5)
        elif case == "two_atoms":
            law, values = "crossratio_full", np.repeat([-1.0, 3.0], [40_000, n - 40_000])
        elif case == "uniform_as_star":
            law, values = "star", rng.uniform(-1.0, 1.0, n)
        else:
            law, values = "star", rng.standard_cauchy(n)
            values[[0, n // 2, n - 1]] = [np.inf, np.nan, -np.inf]
        with np.errstate(invalid="ignore"):
            _assert_pruned_ks(np.sort(values), law)

    @pytest.mark.parametrize("law", LAWS)
    def test_work_at_a_million_points(self, law):
        # each law's own sample: a few percent of n, measured 1.7-3.2%
        n = 10**6
        table = modmap.default_table()
        xs = np.sort(np.concatenate([
            _sample_chunk(law, SEED, c, min(_CHUNK, n - c * _CHUNK), table)
            for c in range(-(-n // _CHUNK))]))
        assert _assert_pruned_ks(xs, law) <= 0.05 * n
