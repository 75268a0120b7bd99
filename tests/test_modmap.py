"""Modulus-to-cross-ratio table, derived densities, stretch constants."""
from __future__ import annotations

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import fixed_quad, quad

from punctorus import lame, mc, modmap
from punctorus.closedform import quad_cr_cdf, quad_cr_median
from punctorus.tabular import csv_text
from punctorus.modmap import (
    CrMapTable,
    asymptotic_bounds,
    build_cr_table,
    cr_of_modulus,
    modulus_cdf,
    modulus_of_cr,
    modulus_pdf,
    quasimobius_K,
    summary_stats,
    teich_cdf,
    teich_pdf,
)


class TestTableConstruction:
    def test_csv_round_trip(self, cr_table, tmp_path):
        path = tmp_path / "table.csv"
        cr_table.to_csv(path)
        back = CrMapTable.from_csv(path)
        np.testing.assert_array_equal(back.ms, cr_table.ms)
        np.testing.assert_array_equal(back.crs, cr_table.crs)
        assert back.a_estimate == cr_table.a_estimate
        assert back.c_hat == cr_table.c_hat
        assert back.curvature_gap == cr_table.curvature_gap
        for table in (back, cr_table):
            for value in (table.a_estimate, table.curvature_gap, table.c_hat):
                assert type(value) is float

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,tau,nonsense\n1,1,2\n")
        with pytest.raises(ValueError, match="columns"):
            CrMapTable.from_csv(path)

    @pytest.mark.parametrize("mangle, match", [
        (lambda lines: lines[:2] + [",".join(lines[2].split(",")[:4])] + lines[3:],
         "table line 3 has 4 fields, expected 9"),
        (lambda lines: lines[:2] + [lines[2] + ",1"] + lines[3:],
         "table line 3 has 10 fields, expected 9"),
        (lambda lines: lines[:2] + [""] + lines[2:], "table line 3 has 0 fields"),
        (lambda lines: [], "has no header"),
    ], ids=["short-row", "long-row", "blank-line", "empty-file"])
    def test_csv_row_width_checked(self, cr_table, tmp_path, mangle, match):
        # every row must fill the nine columns, or rows() and to_csv fail
        # later on a record without them
        path = tmp_path / "table.csv"
        cr_table.to_csv(path)
        path.write_text("".join(f"{line}\n" for line in mangle(path.read_text().splitlines())))
        with pytest.raises(ValueError, match=match):
            CrMapTable.from_csv(path)

    def test_csv_field_must_be_a_number(self, cr_table, tmp_path):
        # float() alone named neither the file nor the line
        path = tmp_path / "table.csv"
        cr_table.to_csv(path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(["x"] + lines[2].split(",")[1:])
        path.write_text("".join(f"{line}\n" for line in lines))
        with pytest.raises(ValueError, match="table line 3 field m = 'x' is not a number") as err:
            CrMapTable.from_csv(path)
        assert str(path) in str(err.value)

    def test_node_validation(self):
        ms = np.linspace(1.0, 2.0, 9)
        with pytest.raises(ValueError):
            CrMapTable(ms[:4], ms[:4] + 1.0, [])
        bad = ms.copy()
        bad[3] = bad[2]
        with pytest.raises(ValueError):
            CrMapTable(bad, np.linspace(2.0, 3.0, 9), [])

    @pytest.mark.parametrize("first", [2.0, 1.0 + 2**-52, 1.0 - 2**-53, 0.5])
    def test_first_node_is_the_square(self, first):
        # the map, its derivative at 1 and the inverse's clamp all read
        # the first node as m = 1
        ms = np.linspace(1.0, 2.0, 9) - 1.0 + first
        with pytest.raises(ValueError, match="first node must be the square torus"):
            CrMapTable(ms, np.linspace(2.0, 3.0, 9), [])

    def test_csv_without_the_square_is_rejected(self, cr_table, tmp_path):
        path = tmp_path / "table.csv"
        cr_table.to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + lines[2:]))
        with pytest.raises(ValueError, match="first node must be the square torus"):
            CrMapTable.from_csv(path)

    def test_build_arguments_validated(self):
        with pytest.raises(ValueError, match="need 16 <= n <= 48"):
            build_cr_table(n=15)
        with pytest.raises(TypeError):
            build_cr_table(m_max=50.0)

    def test_build_is_keyword_only(self, monkeypatch):
        # the old (m_min, m_max, n) positional call fails instead of
        # building another table
        def solve(tau, bracket=None):
            raise AssertionError("no solve expected")

        monkeypatch.setattr(lame, "solve_accessory", solve)
        with pytest.raises(TypeError):
            build_cr_table(1.0, 50.0)

    def test_most_nodes_keep_the_map_agreement(self, monkeypatch):
        # 48 nodes match direct solves to the 3.2e-11 of the default
        # build (measured 2.9e-12); from 49 up the degree n - 1 series
        # reaches s = 0 worse (6.1e-11 at 49, 1.3e-9 at 64)
        ms = np.geomspace(1.01, 200.0, 40)
        direct = np.array([lame.solve_accessory(1.0 / m).cross_ratio for m in ms])
        table = build_cr_table(n=48)
        assert len(table.ms) == 48
        assert np.max(np.abs(cr_of_modulus(ms, table) / direct - 1.0)) <= 3.2e-11
        taus = []

        def solve(tau, bracket=None):
            taus.append(tau)
            raise lame.SolverFailure("stub", {"tau": tau})

        monkeypatch.setattr(lame, "solve_accessory", solve)
        for n in (49, 64, 10**6):
            with pytest.raises(ValueError, match="need 16 <= n <= 48"):
                build_cr_table(n=n)
        assert taus == []
        # a node's failure propagates as it is
        with pytest.raises(lame.SolverFailure):
            build_cr_table(n=48)
        assert taus == [1.0]

    def test_every_node_is_interpolated(self):
        # the forward series has degree n - 1, so it passes through all
        # n nodes up to rounding
        table = build_cr_table(n=24)
        got = cr_of_modulus(table.ms, table)
        assert np.max(np.abs(got / table.crs - 1.0)) <= 1e-13

    def test_committed_default_table_is_a_fresh_build(self, cr_table):
        # cr_table is a fresh build_cr_table(); the shipped rows are its
        # cr-map --table output, so a solver change that moves any node
        # in any digit fails here, and the CSV is regenerated with
        # punctorus cr-map --table --out src/punctorus/default_table.csv
        shipped = Path(modmap.__file__).with_name("default_table.csv")
        assert shipped.read_bytes() == csv_text(*cr_table.rows()).encode()
        table = modmap.default_table()
        np.testing.assert_array_equal(table.ms, cr_table.ms)
        np.testing.assert_array_equal(table.crs, cr_table.crs)

    def test_default_table_makes_no_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the default table must not solve")

        monkeypatch.setattr(lame, "solve_accessory", no_solve)
        modmap.default_table.cache_clear()
        assert modmap.default_table().ms[0] == 1.0
        assert modulus_of_cr(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_default_table_is_cached_under_threads(self, concurrent_first_calls):
        # concurrent first calls may each read the file; all get equal
        # tables, and the cache then keeps one of them
        modmap.default_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = concurrent_first_calls(modmap.default_table)
        finally:
            sys.setswitchinterval(interval)
        for t in got[1:]:
            np.testing.assert_array_equal(t.ms, got[0].ms)
            np.testing.assert_array_equal(t.crs, got[0].crs)
        later = modmap.default_table()
        assert modmap.default_table() is later
        assert any(t is later for t in got)

    def test_nodes_are_read_only_copies(self):
        # a write through the shared default table would make .ms
        # disagree with the series for every later caller
        with pytest.raises(ValueError, match="read-only"):
            modmap.default_table().ms[3] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            modmap.default_table().crs[3] = 7.0
        ms, crs = np.linspace(1.0, 2.0, 9), np.linspace(2.0, 3.0, 9)
        table = CrMapTable(ms, crs, [])
        ms[3] = crs[3] = 7.0
        assert table.ms[3] == 1.375 and table.crs[3] == 2.375

    def test_records_match_nodes(self, cr_table):
        assert len(cr_table.records) == len(cr_table.ms)
        rec_ms = np.array([r["m"] for r in cr_table.records])
        np.testing.assert_allclose(np.sort(rec_ms), cr_table.ms, rtol=0)
        assert max(abs(r["residual"]) for r in cr_table.records) < 1e-9

    @pytest.mark.parametrize("m", [1.32, 1.51])
    def test_seeded_nodes_match_cold_solves(self, cr_table, m):
        # the nodes next to 1.32 and 1.51, where a fixed-width warm
        # bracket around the previous root missed the root
        rec = min(cr_table.records, key=lambda r: abs(r["m"] - m))
        assert abs(rec["m"] - m) < 0.01
        cold = lame.solve_accessory(rec["tau"])
        assert not cold.diagnostics["warm"]
        assert rec["lambda_acc"] == pytest.approx(cold.lambda_acc, abs=1e-11)

    def test_build_work_count(self, monkeypatch):
        calls, solves = [], []
        invariants, solve = lame.circle_invariants, lame.solve_accessory

        def counted(data):
            calls.append(None)
            return invariants(data)

        def counted_solve(tau, bracket=None):
            solves.append(tau)
            return solve(tau, bracket=bracket)

        monkeypatch.setattr(lame, "circle_invariants", counted)
        monkeypatch.setattr(lame, "solve_accessory", counted_solve)
        build_cr_table()
        # one solve per node, and 4-7 lambda trials each; both counts also
        # show that a build, which imports lame itself, still calls it
        # through the module's attributes
        assert len(solves) == 16
        assert 16 * 4 <= len(calls) <= 16 * 7


class TestForwardMap:
    def test_square_endpoint(self, cr_table):
        assert cr_of_modulus(1.0, cr_table) == pytest.approx(2.0, abs=1e-13)

    def test_matches_direct_solves_off_the_nodes(self, cr_table):
        ms = (1.3, 2.5, 4.2, 7.7, 13.0, 27.0, 44.0, 55.0, 80.0, 120.0, 170.0, 200.0)
        assert np.abs(cr_table.ms[:, None] - np.array(ms)).min() > 1e-3
        errs = [abs(cr_of_modulus(m, cr_table) / lame.solve_accessory(1.0 / m).cross_ratio
                    - 1.0) for m in ms]
        assert max(errs) <= 1e-9

    def test_nested_nodes_estimate_the_interpolation_error(self, cr_table):
        # second-kind Chebyshev nodes in s = 1/m nest: the 16 default nodes
        # are 16 of the 31, and the 31-node map's error (under 3.4e-14 at
        # the solves below) is far below the 16-node one, so
        # |CR_16/CR_31 - 1| estimates the default table's error
        fine = build_cr_table(n=31)
        assert np.isin(cr_table.ms, fine.ms).all()
        ms = np.geomspace(1.0, 200.0, 2001)
        est = np.abs(cr_of_modulus(ms, cr_table) / cr_of_modulus(ms, fine) - 1.0)
        # the estimate over the true error: 0.96-1.03 measured at these m
        for m in (1.6, 2.5, 4.2, 13.0, 27.0):
            true = abs(cr_of_modulus(m, cr_table) / lame.solve_accessory(1.0 / m).cross_ratio
                       - 1.0)
            est_m = abs(cr_of_modulus(m, cr_table) / cr_of_modulus(m, fine) - 1.0)
            assert true / 1.25 <= est_m <= 1.25 * true, m
        # 1.67e-11 measured, 1.9 times under the 3.2e-11 map agreement
        assert est.max() <= 3.2e-11
        # the worst interpolation error lies inside the nodes, measured at
        # m = 2.46, near the 09a median m = 2.30
        assert 1.0 < ms[np.argmax(est)] < 50.0

    def test_functional_equation_against_direct_solve(self, cr_table):
        # a torus with modulus below 1 solved directly, no reflection
        direct = lame.solve_accessory(1.5)
        assert direct.modulus == pytest.approx(2.0 / 3.0, rel=1e-15)
        got = cr_of_modulus(2.0 / 3.0, cr_table)
        assert got == pytest.approx(direct.cross_ratio, rel=1e-7)

    def test_sandwich_at_every_node(self, cr_table):
        # the solved CR at the square may round just under 2
        lo, up = asymptotic_bounds(np.maximum(cr_table.crs, 2.0))
        assert np.all(lo <= cr_table.ms)
        assert np.all(cr_table.ms <= up)

    def test_deficit_stabilizes(self, cr_table):
        sel = cr_table.ms >= 20.0
        deficit = 0.5 * math.pi * np.sqrt(cr_table.crs[sel]) - cr_table.ms[sel]
        assert deficit.min() > 0.85
        assert deficit.max() < 0.95
        assert 0.5 < cr_table.c_hat < 1.3

    def test_derivative_estimate(self, cr_table):
        assert 0.98 * math.pi / 2 < cr_table.a_estimate < 1.02 * math.pi / 2
        assert cr_table.curvature_gap < 0.02 * cr_table.a_estimate**2

    def test_observed_limits_at_infinity(self, cr_table):
        """The series' limits as m -> infinity against two closed forms.

        These are observations, not theorems: the forward series, fitted
        to nodes that end at m = 50, gives (pi/2) sqrt(CR(m)) - m ->
        ln 16 / pi (the Groetzsch ring constant, mu(r) ~ log(4/r)) to
        about 1e-9, and a deficit slope at s = 1/m = 0 within 3e-7
        relative of pi^2 / 12.
        """
        assert cr_table._y(1e8) - 1e8 == pytest.approx(math.log(16.0) / math.pi, abs=1e-6)
        assert cr_table._deficit_d1(0.0) == pytest.approx(math.pi**2 / 12.0, rel=1e-4)

    def test_asymptotic_continuation_is_continuous(self, cr_table):
        below = cr_of_modulus(cr_table.m_max - 1e-9, cr_table)
        above = cr_of_modulus(cr_table.m_max + 1e-9, cr_table)
        assert above == pytest.approx(below, rel=1e-6)

    def test_rejects_nonpositive_modulus(self, cr_table):
        with pytest.raises(ValueError):
            cr_of_modulus(0.0, cr_table)

    def test_vectorized_matches_scalar(self, cr_table):
        grid = np.array([0.5, 1.0, 3.7, 60.0])
        vec = cr_of_modulus(grid, cr_table)
        for m, v in zip(grid, vec):
            assert cr_of_modulus(m.item(), cr_table) == pytest.approx(v,
                                                                      rel=1e-14)


def _moduli(table: CrMapTable) -> np.ndarray:
    """About 50 moduli: m = 1, the nodes, m_max, beyond it, below 1, and
    seeded ones in between."""
    rng = np.random.default_rng(8)
    return np.concatenate([[1.0, 1.0 + 2.0**-52, table.m_max, table.m_max + 1e-9, 60.0,
                            1e3, 1e8, 1e160, 0.02, 0.5, 1.0 - 2.0**-53],
                           table.ms, 1.0 / table.ms[1:6], rng.uniform(1.0, table.m_max, 15)])


_LOOKUPS = {
    "cr_of_modulus": (cr_of_modulus, _moduli),
    "modulus_of_cr": (modulus_of_cr, lambda t: np.maximum(cr_of_modulus(_moduli(t), t), 2.0)),
    "modulus_pdf": (modulus_pdf, _moduli),
    "teich_pdf": (teich_pdf, lambda t: np.log(_moduli(t))),
    "modulus_cdf": (modulus_cdf, _moduli),
    "teich_cdf": (teich_cdf, lambda t: np.log(_moduli(t))),
}


@pytest.mark.parametrize("name", _LOOKUPS)
def test_scalar_lookups_equal_one_array_call(cr_table, name):
    # a scalar and an array both sum the table's series in place, one
    # point or many; both read the coefficients the table holds, and
    # agree bit for bit
    fn, points = _LOOKUPS[name]
    x = points(cr_table)
    assert len(x) > 40
    many = fn(x, cr_table)
    for v, want in zip(x.tolist(), many.tolist()):
        got = fn(v, cr_table)
        assert isinstance(got, float)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), v


class TestInverseMap:
    def test_roundtrip(self, cr_table):
        for q in (2.1, 5.0, 20.0, cr_table.cr_max * 1.5):
            m = modulus_of_cr(q, cr_table)
            assert cr_of_modulus(m, cr_table) == pytest.approx(q, rel=1e-9)

    def test_left_edge(self, cr_table):
        assert modulus_of_cr(2.0, cr_table) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            modulus_of_cr(1.99, cr_table)

    def test_peak_memory(self, cr_table):
        # one output array plus one 2^15 block of scratch: 1.22 arrays
        # measured (2.19 while (pi/2) sqrt(Q) was taken over the whole array)
        n = 1 << 20
        q = 2.0 + np.random.default_rng(0).exponential(5.0, n)
        modulus_of_cr(q[:100], cr_table)
        tracemalloc.start()
        try:
            modulus_of_cr(q, cr_table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n

    def test_bounds_interface(self):
        lo, up = asymptotic_bounds(9.0)
        assert up - lo == pytest.approx(math.pi / 2, rel=1e-15)
        assert up == pytest.approx(1.5 * math.pi, rel=1e-15)
        los, ups = asymptotic_bounds(np.array([4.0, 9.0]))
        assert los.shape == (2,)
        with pytest.raises(ValueError):
            asymptotic_bounds(1.0)


@pytest.fixture(scope="module")
def table_24() -> CrMapTable:
    return build_cr_table(n=24)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


class TestMapLawDraws:
    """The modulus and Teichmueller laws read the circle draw: each chunk
    is the inverse map, and its log, of the quad_cr chunk at the same
    (seed, chunk)."""

    @pytest.mark.parametrize("nodes", [None, 24])
    @pytest.mark.parametrize("seed, chunk, count", [(11, 3, 1), (7, 0, 1 << 14),
                                                    (523, 2, 1001)])
    def test_draws_are_the_modulus_of_the_quad_cr_draws(self, table_24, nodes, seed, chunk,
                                                        count):
        table = None if nodes is None else table_24
        q = mc._sample_chunk("quad_cr", seed, chunk, count, None)
        want = (modmap.default_table() if table is None else table)._modulus(q)
        modulus = mc._sample_chunk("modulus", seed, chunk, count, table)
        teich = mc._sample_chunk("teich", seed, chunk, count, table)
        np.testing.assert_array_equal(_bits(modulus), _bits(want))
        np.testing.assert_array_equal(_bits(teich), _bits(np.log(want)))
        # the lookup reads the same inverse, so the sample and the CDF its
        # KS is scored against share it
        np.testing.assert_array_equal(_bits(modulus_of_cr(q, table)), _bits(want))

    @pytest.mark.parametrize("nodes", [None, 24])
    @pytest.mark.parametrize("law", ["modulus", "teich"])
    def test_a_run_is_its_chunks(self, table_24, nodes, law):
        # the run-level scratch changes no draw: a run with a partial last
        # chunk is its chunks drawn one by one, each on its own arrays
        table = None if nodes is None else table_24
        n = 2 * mc._CHUNK + 5
        want = np.concatenate([mc._sample_chunk(law, 9, c, min(mc._CHUNK, n - c * mc._CHUNK),
                                                table) for c in range(3)])
        np.testing.assert_array_equal(_bits(mc._sample(law, 9, n, table)), _bits(want))

    def test_draws_stay_in_the_support(self, table_24):
        for table in (None, table_24):
            assert np.all(mc._sample_chunk("teich", 5, 0, 1 << 14, table) >= 0.0)
            assert np.all(mc._sample_chunk("modulus", 5, 0, 1 << 14, table) >= 1.0)

    @pytest.mark.parametrize("seed", [1, 5, 77, 523, 9101])
    @pytest.mark.parametrize("n", [10**3, 10**5])
    def test_ks_is_the_quad_cr_ks(self, seed, n):
        # the modulus CDF is the quadrilateral CDF at CR(m), and the
        # Teichmueller CDF the modulus CDF at e^d, so all three laws score
        # one sample: teich and modulus read the same KS at these seeds
        # (measured equal), and each differs from quad_cr's only by the
        # map's round trip, measured at most 1.35e-12 (seed 523, n = 10^3);
        # the bound leaves a margin of 3.7
        ks = {law: mc.run_law(mc.McConfig(n_samples=n, seed=seed, law=law)).ks_distance
              for law in ("quad_cr", "modulus", "teich")}
        assert abs(ks["teich"] - ks["modulus"]) <= 1e-15
        assert abs(ks["modulus"] - ks["quad_cr"]) <= 5e-12

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_a_run_reuses_its_scratch(self, fresh_python):
        # In a fresh interpreter glibc trims and re-faults the pages of
        # chunk-sized temporaries: the first 10^6-draw teich run after a
        # 10^3-draw warm-up took about 9,200 minor faults when each chunk
        # allocated its own (8,700-9,400 measured), and takes about 900
        # with each run's scratch allocated once.
        script = ("import resource\n"
                  "from punctorus import mc\n"
                  "mc.run_law(mc.McConfig(n_samples=1000, seed=1, law='teich'))\n"
                  "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "mc.run_law(mc.McConfig(n_samples=10**6, seed=2, law='teich'))\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n")
        assert int(fresh_python("-c", script).stdout) <= 2500


def _piecewise_mass(fn, breaks) -> float:
    # 12-point Gauss on each inter-node interval, where the series
    # density is smooth; callers add the tail past the last node by quad
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        v, _ = fixed_quad(fn, a, b, n=12)
        total += v
    return total


class TestDerivedDensities:
    def test_modulus_pdf_mass(self, cr_table):
        inner = _piecewise_mass(lambda m: modulus_pdf(m, cr_table),
                                cr_table.ms)
        outer, _ = quad(lambda m: modulus_pdf(m, cr_table), cr_table.m_max,
                        np.inf, limit=200)
        assert inner + outer == pytest.approx(1.0, abs=1e-4)

    def test_modulus_pdf_decreasing_in_the_tail(self, cr_table):
        grid = np.linspace(5.0, 49.0, 45)
        vals = modulus_pdf(grid, cr_table)
        assert np.all(np.diff(vals) < 0)

    def test_teich_pdf_is_log_pushforward(self, cr_table):
        for d in (0.0, 0.4, 2.0):
            e = math.exp(d)
            assert teich_pdf(d, cr_table) == pytest.approx(
                modulus_pdf(e, cr_table) * e, rel=1e-13)
        # 0 outside the support, like every law's density
        assert teich_pdf(-0.1, cr_table) == 0.0
        assert modulus_pdf(0.9, cr_table) == 0.0

    def test_far_tails_and_nan(self, cr_table):
        # (2y/pi)^2 overflows from m ~ 1e155 (d ~ 356), e^d from d ~ 710
        ms = np.array([1e155, 1e300, np.inf, np.nan])
        got = modulus_pdf(ms, cr_table)
        assert got[:3].tolist() == [0.0, 0.0, 0.0] and math.isnan(got[3])
        ds = np.array([356.0, 400.0, 800.0, np.inf, np.nan])
        got = teich_pdf(ds, cr_table)
        assert got[:4].tolist() == [0.0] * 4 and math.isnan(got[4])

    def test_teich_mass_and_tail_truncation(self, cr_table):
        kink = math.log(cr_table.m_max)
        inner = _piecewise_mass(lambda d: teich_pdf(d, cr_table),
                                np.log(cr_table.ms))
        outer, _ = quad(lambda d: teich_pdf(d, cr_table), kink, 25.0, limit=200)
        to25 = inner + outer
        tail, _ = quad(lambda d: teich_pdf(d, cr_table), 25.0, 30.0)
        assert to25 == pytest.approx(1.0, abs=1e-4)
        assert tail < 1e-8

    def test_summary_stats_frozen(self, cr_table):
        mean, median, sd = summary_stats(cr_table)
        assert mean == pytest.approx(1.00993, abs=2e-4)
        assert median == pytest.approx(0.83187, abs=2e-4)
        assert sd == pytest.approx(0.80056, abs=2e-4)

    def test_median_is_pushforward_of_cr_median(self, cr_table):
        _, median, _ = summary_stats(cr_table)
        assert median == pytest.approx(
            math.log(modulus_of_cr(quad_cr_median(), cr_table)), rel=1e-12)

    def test_cdfs_read_the_map_from_the_square_up(self, cr_table):
        ms = np.array([0.0, 0.5, 1.0 - 2**-53, 1.0, 1.3, 7.0, 80.0, np.inf, np.nan])
        got = modulus_cdf(ms, cr_table)
        up = ms[3:8]
        want = quad_cr_cdf(cr_of_modulus(up, cr_table))
        assert got[:3].tolist() == [0.0] * 3
        np.testing.assert_array_equal(got[3:8], want)
        assert math.isnan(got[8])
        ds = np.array([-1.0, -1e-17, 0.0, 0.4, 3.0, 800.0])
        with np.errstate(over="ignore"):
            es = np.exp(ds)
        np.testing.assert_array_equal(
            teich_cdf(ds, cr_table), np.where(ds < 0.0, 0.0, modulus_cdf(es, cr_table)))
        assert teich_cdf(-1e-17, cr_table) == 0.0 and teich_cdf(800.0, cr_table) == 1.0
        assert type(modulus_cdf(2.0, cr_table)) is float

    def test_teich_pdf_flat_then_falling_at_the_square(self, cr_table):
        # T'(0) = 0 and T''(0) = -0.46 from direct solves, so the change
        # over the first 0.01 is about T''(0) 0.01^2 / 2 = -2.3e-5
        step = teich_pdf(0.01, cr_table) - teich_pdf(0.0, cr_table)
        assert -3e-5 <= step <= -1.5e-5


class TestQuasimobius:
    def test_identity_and_symmetry(self, cr_table):
        assert quasimobius_K(3.0, 3.0, cr_table) == 1.0
        assert quasimobius_K(2.5, 7.0, cr_table) == \
            quasimobius_K(7.0, 2.5, cr_table)
        assert quasimobius_K(2.5, 7.0, cr_table) > 1.0

    def test_small_perturbation_slope(self, cr_table):
        k = quasimobius_K(2.0, 2.001, cr_table)
        assert k - 1.0 == pytest.approx(0.001 * 2.0 / math.pi, rel=0.05)

    def test_large_ratio_asymptote(self, cr_table):
        k = quasimobius_K(1.0e4, 4.0e4, cr_table)
        assert k == pytest.approx(2.0, rel=0.02)

    def test_domain(self, cr_table):
        with pytest.raises(ValueError):
            quasimobius_K(1.9, 3.0, cr_table)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_cross_ratios_rejected(self, cr_table, q):
        # inf would give K = inf, or nan against another inf
        for src, dst in ((q, 3.0), (3.0, q), (q, q)):
            with pytest.raises(ValueError, match="finite"):
                quasimobius_K(src, dst, cr_table)
