"""The acceptance gate, computed once.

Each check computes every number of one acceptance clause and writes
each of the clause's bounds once, as a named verdict; it reports the
labels of the bounds that failed, a one-line summary, and the numbers
themselves as ``values``.  ``tests/test_acceptance.py`` asserts these
verdicts and restates no bound, so the gate and ``punctorus verify``
cannot drift apart.
Quick mode only does less of the same work: smaller Monte Carlo
samples, two moduli instead of five for the functional equation, and
100 group draws instead of 1000.  One check is expected to fail
under a nominal build: the stated Teichmueller median, which the
pushforward of the exact quadrilateral median through the solved
modulus map does not reach.  So the suite's exit condition is "every
check matches its expected status", not "every check passes".
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from . import lame, mc, modmap, torusgroup

__all__ = ["CheckResult", "run_checks", "EXPECTED_FAILURES"]

# Checks whose stated targets disagree with the package's own validated
# quadratures; they are reported as red on purpose.
EXPECTED_FAILURES = ("09a-teich-median",)

_PI2 = math.pi ** 2
_SEED = 20260819


@dataclass(frozen=True)
class CheckResult:
    name: str
    failed: tuple[str, ...]
    expected_pass: bool
    detail: str
    values: dict

    @property
    def passed(self) -> bool:
        """True when no bound failed."""
        return not self.failed

    @property
    def nominal(self) -> bool:
        """True when the outcome matches what a healthy build produces."""
        return self.passed == self.expected_pass

    def to_json_dict(self) -> dict:
        """Name, expected status, failed bounds, detail and values."""
        return {"name": self.name, "expected_pass": self.expected_pass,
                "failed": self.failed, "detail": self.detail, "values": self.values}


def _result(name: str, bounds: dict[str, bool], detail: str, values: dict) -> CheckResult:
    """The check's result; bounds maps what each bound constrains to its verdict."""
    failed = tuple(label for label, ok in bounds.items() if not ok)
    return CheckResult(name, failed, name not in EXPECTED_FAILURES, detail, values)


# A tanh-sinh rule (Takahasi and Mori 1974) at step h = 1/32 over
# |kh| <= 4, on [0, 1]: each node's distance to the nearer end,
# 1/(e^|u| cosh u)/2 with u = (pi/2) sinh(kh), and its weight.  It
# shares no code with closedform's Gauss-Legendre rule, so clause 01
# checks the closed forms by an independent route.
_TS_T = np.arange(-128, 129) / 32.0
_TS_U = 0.5 * math.pi * np.sinh(_TS_T)
_TS_GAP = 0.5 / (np.exp(np.abs(_TS_U)) * np.cosh(_TS_U))
_TS_W = math.pi / 128.0 * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2


def _tanh_sinh(f, a: float, b: float) -> float:
    """The integral of f over [a, b], where a or b may be infinite.

    [a, inf) is mapped through x = a + v/(1 - v), and (-inf, b] by
    negation; nodes that round onto an end are dropped.
    """
    if a == -math.inf:
        return _tanh_sinh(lambda y: f(-y), -b, math.inf)
    low = _TS_T < 0
    if b == math.inf:
        v = np.where(low, _TS_GAP, 1.0 - _TS_GAP)
        rest = np.where(low, 1.0 - _TS_GAP, _TS_GAP)
        x, w = a + v / rest, _TS_W / rest**2
    else:
        x = np.where(low, a + (b - a) * _TS_GAP, b - (b - a) * _TS_GAP)
        w = (b - a) * _TS_W
    keep = (x > a) & (x < b)
    return float(np.sum(f(x[keep]) * w[keep]))


def _check_normalization(quick: bool, table) -> list[CheckResult]:
    def mass(pdf, *cuts):
        return sum(_tanh_sinh(pdf, a, b) for a, b in zip(cuts, cuts[1:]))

    t0 = time.perf_counter()
    thr = cf.LENGTH_THRESHOLD
    masses = {
        "full": mass(cf.crossratio_pdf, -np.inf, 0.0, 1.0, np.inf),
        "quad": mass(cf.quad_cr_pdf, 2.0, np.inf),
        "length": mass(cf.length_pdf, 0.0, thr),
        "dual": mass(cf.length_pdf_dual, 0.0, thr, np.inf),
        "star": mass(cf.star_pdf, -np.inf, 0.0, np.inf),
    }
    dt = time.perf_counter() - t0
    worst = max(abs(m - 1.0) for m in masses.values())
    return [_result("01-pdf-normalization", {"mass": worst < 1e-8, "seconds": dt < 1.0},
                    f"worst |mass-1| = {worst:.2e} over {len(masses)} laws, {dt:.2f}s",
                    {"masses": masses, "seconds": dt})]


def _check_quad_median(quick: bool, table) -> list[CheckResult]:
    t0 = time.perf_counter()
    med = cf.quad_cr_median()
    dt = time.perf_counter() - t0
    return [_result("02-quad-median", {"median": abs(med - 4.6883) <= 5e-4, "seconds": dt < 0.1},
                    f"median = {med:.6f}, {dt:.3f}s", {"median": med, "seconds": dt})]


def _check_length_moments(quick: bool, table) -> list[CheckResult]:
    t0 = time.perf_counter()
    mean = cf.length_mean()
    bmed = cf.length_branch_median()
    dt = time.perf_counter() - t0
    bounds = {"mean": abs(mean - 0.984154) <= 1e-4,
              "branch_median": abs(bmed - 0.99929) <= 1e-3, "seconds": dt < 1.0}
    return [_result("03-length-checkpoints", bounds,
                    f"mean = {mean:.6f}, branch median = {bmed:.6f}, {dt:.2f}s",
                    {"mean": mean, "branch_median": bmed, "seconds": dt})]


def _check_mc(quick: bool, table) -> list[CheckResult]:
    n = 10**5 if quick else 10**6

    def run(law: str) -> mc.EmpiricalSummary:
        return mc.run_law(mc.McConfig(n_samples=n, seed=_SEED, law=law))

    t0 = time.perf_counter()
    # length and quad_cr share their draws: the length sample is the
    # quad_cr sample read through the length dictionary, so its KS scores
    # that sample against length_branch_cdf, not a third independent one;
    # the length is monotone in the cross ratio, so the two KS distances
    # agree up to rounding.  run_law's output is a function of (seed, n)
    # alone, so one rerun of the quad_cr config checks it reproduces
    runs = {law: run(law) for law in ("crossratio_full", "quad_cr", "length", "star")}
    rerun = run("quad_cr")
    dt = time.perf_counter() - t0
    ks = {law: s.ks_distance for law, s in runs.items()}
    deterministic = (np.array_equal(runs["quad_cr"].counts, rerun.counts)
                     and ks["quad_cr"] == rerun.ks_distance)
    worst = max(ks.values())
    bounds = {"ks": worst < 0.005, "deterministic": deterministic, "seconds": dt < 30.0}
    return [_result("04-monte-carlo-ks", bounds,
                    f"worst KS = {worst:.5f} at n={n}, deterministic = "
                    f"{deterministic}, {dt:.1f}s",
                    {"ks": ks, "rerun_counts": rerun.counts,
                     "rerun_ks": rerun.ks_distance, "seconds": dt})]


def _check_square_solve(quick: bool, table) -> list[CheckResult]:
    t0 = time.perf_counter()
    sol = lame.solve_accessory(1.0)
    dt = time.perf_counter() - t0
    cr = sol.cross_ratio
    tangency = sol.diagnostics["tangency_residual"]
    drift = sol.diagnostics["wronskian_drift"]
    bounds = {"cross_ratio": abs(cr - 2.0) <= 1e-6, "tangency": abs(tangency) < 1e-10,
              "drift": drift < 1e-9, "seconds": dt < 0.5}
    return [_result("05-square-torus-solve", bounds,
                    f"CR = {cr:.8f}, tangency = {tangency:.1e}, drift = "
                    f"{drift:.1e}, {dt:.2f}s",
                    {"cross_ratio": cr, "tangency": tangency, "drift": drift,
                     "seconds": dt})]


def _check_functional_equation(quick: bool, table) -> list[CheckResult]:
    ms = (1.5, 3.0) if quick else (1.25, 1.5, 2.0, 3.0, 5.0)
    t0 = time.perf_counter()
    gaps = {}
    for m in ms:
        cr_m = lame.solve_accessory(1.0 / m).cross_ratio
        cr_recip = lame.solve_accessory(m).cross_ratio
        # CR(1/m) = CR(m)/(CR(m) - 1) is an involution; check both ways
        gaps[m] = max(abs(cr_recip - cr_m / (cr_m - 1.0)),
                      abs(cr_m - cr_recip / (cr_recip - 1.0)))
    dt = time.perf_counter() - t0
    worst = max(gaps.values())
    return [_result("06-functional-equation", {"gap": worst < 1e-5, "seconds": dt < 10.0},
                    f"worst residual = {worst:.2e} over m in {ms}, {dt:.1f}s",
                    {"gaps": gaps, "seconds": dt})]


def _check_sandwich(quick: bool, table) -> list[CheckResult]:
    sel = table.ms >= 2.0
    ms = table.ms[sel]
    lower, upper = modmap.asymptotic_bounds(table.crs[sel])
    below, above = ms[ms < lower], ms[ms > upper]
    tail = ms >= 20.0
    deficit = upper[tail] - ms[tail]
    lo, hi = deficit.min().item(), deficit.max().item()
    bounds = {"below": below.size == 0, "above": above.size == 0,
              "deficit_min": lo >= 0.5, "deficit_max": hi <= 1.3}
    return [_result("07-asymptotic-sandwich", bounds,
                    f"{ms.size} nodes, {below.size + above.size} outside the "
                    f"sandwich, deficit in [{lo:.4f}, {hi:.4f}] for m >= 20",
                    {"below": below, "above": above, "deficit": (lo, hi)})]


def _check_square_derivatives(quick: bool, table) -> list[CheckResult]:
    # phi(d) = CR(e^d) at d = kh from direct solves off the table, made
    # once for clauses 08 and 09d; CR(1) = 2 exactly.  Fourth-order
    # central differences give a = phi'(0) = CR'(1), phi''(0) = CR''(1) + a.
    h = 0.05
    phi = {k: lame.solve_accessory(math.exp(-k * h)).cross_ratio for k in (-2, -1, 1, 2)}
    phi[0] = 2.0
    a = (8.0 * (phi[1] - phi[-1]) - (phi[2] - phi[-2])) / (12.0 * h)
    phi2 = (16.0 * (phi[1] + phi[-1]) - (phi[2] + phi[-2]) - 30.0 * phi[0]) / (12.0 * h**2)
    phi3 = (phi[2] - 2.0 * phi[1] + 2.0 * phi[-1] - phi[-2]) / (2.0 * h**3)
    cr2 = phi2 - a
    a_table = table.a_estimate
    gap = table.curvature_gap
    half_pi = 0.5 * math.pi
    bounds = {"a": 0.98 * half_pi <= a_table <= 1.02 * half_pi,
              "curvature_gap": gap < 0.02 * a_table**2,
              "cr2": abs(cr2 - (a_table**2 - a_table)) < 0.02 * a_table**2}
    derivative = _result(
        "08-derivative-at-square", bounds,
        f"CR'(1) = {a_table:.8f} ({a_table / half_pi:.4f} of pi/2), curvature gap "
        f"= {gap:.2e}, direct CR''(1) = {cr2:.7f} vs a^2-a = {a_table**2 - a_table:.7f}",
        {"a": a_table, "curvature_gap": gap, "cr2": cr2})

    # The log-modulus density is flat at the square torus, then
    # decreasing.  With f the quadrilateral density, the density of
    # d = log m is T = f(phi) phi', and with a = phi'(0) = CR'(1):
    # - the functional equation phi(-d) = phi/(phi - 1) forces
    #   phi''(0) = a^2;
    # - invariance of the cross-ratio law under x -> x/(x - 1) forces
    #   f'(2) = -f(2);
    # - so T'(0) = a^2 (f'(2) + f(2)) = 0 identically, and the shape near
    #   d = 0 is the sign of T''(0) = a^3 (f''(2) - 3 f(2)) + f(2) phi'''(0).
    # The clause was first written as "initially increasing", which would
    # need T''(0) > 0.  Direct accessory solves at m = e^{kh}, k = -2..2,
    # outside the table, give T''(0) = -0.443, -0.454, -0.456 at
    # h = 0.1, 0.05, 0.025: the density decreases from the start.  Here
    # phi comes from the solves above at h = 0.05, and f, f', f'' from
    # one-sided stencils at the support edge q = 2.  The grid of T
    # begins at 0.01 because the series' derivative error near m = 1
    # exceeds the true change of T between 0 and 0.01.
    e = 1e-3
    fs = cf.quad_cr_pdf(2.0 + e * np.arange(5))
    f0 = fs[0].item()
    f1 = ((-25 * fs[0] + 48 * fs[1] - 36 * fs[2] + 16 * fs[3] - 3 * fs[4])
          / (12 * e)).item()
    f2 = ((35 * fs[0] - 104 * fs[1] + 114 * fs[2] - 56 * fs[3] + 11 * fs[4])
          / (12 * e * e)).item()
    t2 = a**3 * (f2 - 3.0 * f0) + f0 * phi3
    ds = np.array([0.01, 0.05, 0.15, 0.3])
    ts = modmap.teich_pdf(ds, table)
    bounds = {"a_table": a_table > 1.0, "f1": abs(f1 + f0) < 1e-8 * f0,
              "phi2": abs(phi2 - a * a) < 0.01 * a * a, "t2": t2 < 0.0,
              "decreasing": np.all(np.diff(ts) < 0.0)}
    return [derivative, _result(
        "09d-teich-initially-increasing", bounds,
        f"T''(0) = {t2:.3f}, T on {ds.tolist()} = "
        f"{np.round(ts, 5).tolist()}, expected flat then strictly decreasing",
        {"a_table": a_table, "f0": f0, "f1": f1, "a": a,
         "phi2": phi2, "t2": t2, "ds": ds, "ts": ts})]


def _check_teich_stats(quick: bool, table) -> list[CheckResult]:
    mean, median, sd = modmap.summary_stats(table)
    stated, tol = 0.779, 0.02
    return [
        _result("09a-teich-median", {"median": abs(median - stated) <= tol},
                f"median = {median:.5f} vs stated {stated} +- {tol}", {"median": median}),
        _result("09b-teich-sd", {"sd": abs(sd - 0.803) <= 0.02}, f"sd = {sd:.5f}", {"sd": sd}),
        _result("09c-teich-mean", {"mean": abs(mean - 1.0) <= 0.05}, f"mean = {mean:.5f}",
                {"mean": mean}),
    ]


def _check_tails(quick: bool, table) -> list[CheckResult]:
    # The modulus density decays like 6 log m / m^3.  Clause 10b fixes
    # the quadrilateral tail f(q) ~ (6/pi^2)(log q + 1)/q^2, whose
    # survival function is P(q > Q) ~ (6/pi^2)(log Q + 2)/Q.  Clause 07
    # puts m between (pi/2) sqrt(q) - pi/2 and (pi/2) sqrt(q), so
    # P(m > x) lies between P(q > (2x/pi)^2) and P(q > (2(x + pi/2)/pi)^2),
    # and both are ~ 3 log x / x^2.  Hence M(m) ~ 6 log m / m^3, and the
    # scaled values M(m) m^3 / (6 log m) on m = geomspace(50, 200, 7)
    # approach 1 at rate 1/log m (0.965 to 0.997 here).
    #
    # The clause was first written as M(m) pi^5 m^3 / (192 log m), which
    # by the same argument tends to pi^5/32 = 9.563, not 1.  The band
    # still rejects a coefficient off by a factor of 1.51 or more upward,
    # or of 2 or more downward.
    ms = np.geomspace(50.0, 200.0, 7)
    ratios = modmap.modulus_pdf(ms, table) * ms**3 / (6.0 * np.log(ms))
    lo, hi = 0.5, 1.5
    out = [_result("10a-modulus-tail-coefficient",
                   {"scaled": np.all((ratios >= lo) & (ratios <= hi))},
                   f"M*m^3/(6 log m) in [{ratios.min():.3f}, {ratios.max():.3f}] "
                   f"vs [{lo}, {hi}]", {"scaled": ratios})]
    r = np.geomspace(1e2, 1e4, 60)
    c = 6.0 / _PI2
    two_term = c * ((np.log(r) + 1.0) / r**2 + (np.log(r) + 0.5) / r**3)
    scaled = (cf.quad_cr_pdf(r) - two_term) * r**4
    peak = np.abs(scaled)
    bound = 20.0 * c
    out.append(_result("10b-quad-tail-residual", {"scaled": np.all(peak <= bound)},
                       f"|residual|*r^4 in [{peak.min():.3f}, {peak.max():.3f}] "
                       f"vs {bound:.3f}", {"scaled": scaled}))
    return out


def _check_group_identities(quick: bool, table) -> list[CheckResult]:
    rng = np.random.default_rng(5)
    n = 100 if quick else 1000
    worst_rect = worst_gen = worst_vertex = 0.0
    for _ in range(n):
        r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        pair = torusgroup.rectangular_generators(r)
        com = torusgroup.commutator(pair.A, pair.B)
        worst_rect = max(worst_rect, abs(complex(com.a + com.d) + 2.0) / 2.0)
        # the sheared draws stay inside [1/8, 8] x [1/20, 5]: the matrix
        # commutator rounds like eps * |u|^2 |v|^2, which already reaches
        # the 1e-9 demand near r=20, lam=8 however exact the identity is
        r_sheared = math.exp(rng.uniform(math.log(0.125), math.log(8.0)))
        lam = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        u, v = torusgroup.nonrectangular_pair(r_sheared, lam)
        com_uv = torusgroup.commutator(u, v)
        worst_gen = max(worst_gen, abs(complex(com_uv.a + com_uv.d) + 2.0) / 2.0)
        z1, z2, z3, z4 = torusgroup.tangency_vertices(pair)
        raw = (z1 - z3) * (z2 - z4) / ((z1 - z2) * (z3 - z4))
        worst_vertex = max(worst_vertex, abs(raw.real - (1.0 + r * r)), abs(raw.imag))
    bounds = {"rect": worst_rect < 1e-9, "general": worst_gen < 1e-9,
              "vertex": worst_vertex < 1e-10}
    return [_result("11-group-identities", bounds,
                    f"rel trace errors rect = {worst_rect:.1e}, general = "
                    f"{worst_gen:.1e}; vertex-CR error = {worst_vertex:.1e} "
                    f"over {n} draws",
                    {"rect": worst_rect, "general": worst_gen, "vertex": worst_vertex})]


_CHECKS = (
    _check_normalization,
    _check_quad_median,
    _check_length_moments,
    _check_mc,
    _check_square_solve,
    _check_functional_equation,
    _check_sandwich,
    _check_square_derivatives,
    _check_teich_stats,
    _check_tails,
    _check_group_identities,
)


def run_checks(quick: bool = False,
               table: modmap.CrMapTable | None = None) -> list[CheckResult]:
    """Run every verification check and return the results in order.

    With no table supplied, checks a fresh ``modmap.build_cr_table()``,
    so the gate covers the solver's table, not the shipped copy.
    """
    if table is None:
        table = modmap.build_cr_table()
    results: list[CheckResult] = []
    for check in _CHECKS:
        results.extend(check(quick, table))
    return results
