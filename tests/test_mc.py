"""Monte Carlo cross-checks: determinism, KS agreement, summaries."""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from punctorus import cli
from punctorus.closedform import LENGTH_THRESHOLD, quad_cr_median
from punctorus.mc import (
    CURVES,
    LAWS,
    PAIRING_PROBABILITY,
    EmpiricalSummary,
    McConfig,
    run_law,
    _sample_chunk,
)

SEED = 20260819


def cfg(law: str, n: int = 100_000, workers: int = 1) -> McConfig:
    return McConfig(n_samples=n, seed=SEED, workers=workers, law=law)


def test_pairing_probability_is_exact():
    assert PAIRING_PROBABILITY == Fraction(1, 3)
    assert isinstance(PAIRING_PROBABILITY, Fraction)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(n_samples=10, seed=1, workers=0)
        with pytest.raises(ValueError):
            McConfig(n_samples=10, seed=1, law="bogus")

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
    def test_pdf_integrates_to_cdf_differences(self, law, cr_table):
        # modulus and teich read the default table, which cr_table installs
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
