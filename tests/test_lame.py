"""Lattice potential, two-leg integration, and the tangency solver."""
from __future__ import annotations

import cmath
import functools
import gc
import math
import re
import sys
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from punctorus import lame
from punctorus.lame import (
    TAU_MAX,
    TAU_MIN,
    BracketError,
    SolverFailure,
    circle_invariants,
    integrate_lame,
    solve_accessory,
    _leg_potentials,
)


@functools.lru_cache
def _theta_terms(logq):
    """(exponent, frequency, weight) of the theta_1 and theta_3 terms,
    kept down to a nome power of 1e-18."""
    def keep(n, K):
        return n < 3 or math.exp(K) >= 1e-18

    return (tuple((n * (n + 1) * logq, 2 * n + 1, float((-1) ** n))
                  for n in range(24) if keep(n, n * (n + 1) * logq)),
            tuple((n * n * logq, 2 * n, 2.0) for n in range(1, 24) if keep(n, n * n * logq)))


def wp(z: complex, tau: float) -> complex:
    """The lattice potential at a general point, periods 2 and 2i tau.

    The oracle for the package's leg potentials, summed term by term in
    complex arithmetic.  Real and negative on the real axis, real and
    positive on the imaginary one, with its double pole at 1 + i tau;
    evaluation within 1e-8 of the pole raises.  The argument is first
    reduced into the quarter fundamental domain [0, 1] x [0, tau].
    """
    if not tau > 0:
        raise ValueError("half-period ratio must be positive")
    z = complex(z)
    x = z.real % 2.0
    y = z.imag % (2.0 * tau)
    conj = False
    if x > 1.0:
        x = 2.0 - x
        conj = not conj
    if y > tau:
        y = 2.0 * tau - y
        conj = not conj
    if abs(complex(x, y) - complex(1.0, tau)) < 1e-8:
        raise ValueError("potential has a double pole at 1 + i*tau")

    if tau >= 1.0:
        M, w = tau, complex(x, y)
    else:
        M, w = 1.0 / tau, 1j * (complex(x, y) / tau)
    logq = -math.pi * M
    c1, c3 = _theta_terms(logq)
    pref = math.pi**2 * math.exp(logq) * (
        sum(s * m * math.exp(K) for K, m, s in c1)
        / (1.0 + sum(s * math.exp(K) for K, m, s in c3))) ** 2
    u = math.pi * w / 2.0
    b = abs(u.imag)
    s1 = sum(s * (cmath.exp(K - b + 1j * m * u) - cmath.exp(K - b - 1j * m * u)) / 2j
             for K, m, s in c1)
    s3 = cmath.exp(-b + 0j) + sum(
        s * (cmath.exp(K - b + 1j * m * u) + cmath.exp(K - b - 1j * m * u)) / 2.0
        for K, m, s in c3)
    val = -pref * (s1 / s3) ** 2
    if tau < 1.0:
        val = -(M * M) * val
    return val.conjugate() if conj else val


def _dop853(tau: float, lam: float, leg: int, **options):
    """scipy's DOP853 (rtol 1e-12) for the (c, c', s, s') columns of
    y'' = (lam - wp) y on the real leg [0, 1] (leg 0) or of
    y'' = (wp - lam) y on the imaginary leg [0, i tau] (leg 1)."""
    if leg == 0:
        end, q = 1.0, lambda x: lam - wp(x, tau).real
    else:
        end, q = tau, lambda t: wp(1j * t, tau).real - lam

    def rhs(t, y):
        v = q(t)
        return [y[1], v * y[0], y[3], v * y[2]]

    return solve_ivp(rhs, (0.0, end), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                     rtol=1e-12, atol=1e-14, **options)


def _walk(tau: float):
    """The cold solve as a linear walk, the oracle of the node bisection.

    It tries the 64 lambda nodes of [-2, 1] upward and stops at the
    first node that is a touching exact zero or that changes sign
    against the node before it, which it then polishes; a node without
    invariants breaks the adjacency of its neighbours.  When nothing
    brackets it raises SolverFailure with tau.  Returns (lambda,
    bracket, data, invariants).
    """
    legs = lame._Legs(tau)

    def trial(lam):
        data = lame._integrate_with(legs, lam)
        inv = circle_invariants(data)
        return lame._signed_root(inv), data, inv

    xs = np.linspace(-2.0, 1.0, 64).tolist()
    pre = None
    for x in xs:
        try:
            cur = (x, trial(x))
        except BracketError:
            pre = None
            continue
        root, data, inv = cur[1]
        if root == 0.0 and abs(inv.tangency_residual()) < 1e-10:
            return x, (x, x), data, inv
        if pre is not None and pre[1][0] * root < 0.0:
            lam, data, inv = lame._polish(trial, pre, cur)
            return lam, (pre[0], x), data, inv
        pre = cur
    raise SolverFailure(f"no sign change of the tangency root function at tau={tau}",
                        diagnostics={"tau": tau})


def _bits(*values: float) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


class TestLatticePotential:
    def test_sign_on_the_axes(self):
        for tau in (0.6, 1.0, 2.3):
            for x in (0.2, 0.5, 0.9):
                v = wp(x, tau)
                assert v.imag == 0.0
                assert v.real < 0.0
            for t in (0.3, 0.8):
                v = wp(1j * t * tau, tau)
                assert v.imag == 0.0
                assert v.real > 0.0

    def test_periodicity_and_symmetry(self):
        tau = 1.4
        z = 0.31 + 0.52j
        base = wp(z, tau)
        assert wp(z + 2.0, tau) == pytest.approx(base, rel=1e-12)
        assert wp(z + 2j * tau, tau) == pytest.approx(base, rel=1e-12)
        assert wp(-z, tau) == pytest.approx(base, rel=1e-12)
        assert wp(z.conjugate(), tau) == pytest.approx(base.conjugate(),
                                                       rel=1e-12)

    def test_pole_principal_part(self):
        tau = 1.3
        p = complex(1.0, tau)
        for ang in (0.3, 2.0, 4.4):
            dz = 1e-4 * cmath.exp(1j * ang)
            scaled = wp(p + dz, tau) * dz * dz
            assert scaled.real == pytest.approx(0.25, abs=1e-8)
            assert abs(scaled.imag) < 1e-8

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            wp(complex(1.0, 1.3), 1.3)
        with pytest.raises(ValueError):
            wp(complex(1.0, 1.3) + 1e-9, 1.3)

    def test_route_continuity_at_square(self):
        z = 0.37 + 0.22j
        lo = wp(z, 1.0 - 1e-12)
        hi = wp(z, 1.0 + 1e-12)
        assert abs(hi - lo) < 1e-10 * abs(hi)

    @pytest.mark.parametrize("tau", [1.7, 0.44])
    def test_leg_potentials_match_general_evaluation(self, tau):
        s = np.array([[0.21, 0.8], [0.3, 0.9]])
        on_real, on_imag = _leg_potentials(tau, s)
        assert on_real.shape == on_imag.shape == s.shape
        np.testing.assert_allclose(
            on_real, np.vectorize(lambda x: wp(x, tau).real)(s), rtol=1e-13)
        np.testing.assert_allclose(
            on_imag, np.vectorize(lambda x: wp(1j * x * tau, tau).real)(s), rtol=1e-13)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            wp(0.3, 0.0)


class TestTwoLegIntegration:
    def test_wronskian_drift(self):
        data = integrate_lame(0.8, -0.083053464)
        assert data.wronskian_drift < 1e-9

    # The solved lambda at tau <= 1; past tau = 5.3 no solve succeeds, so
    # tau = 6 and 50 take lambda(tau) = -lambda(1/tau) / tau^2.
    @pytest.mark.parametrize("tau, lam", [
        (0.005, -0.6114421907),
        (0.8, -0.083053464),
        (6.0, 0.4698854299 / 36.0),
        (50.0, 0.5956411415 / 2500.0),
    ], ids=["0.005", "0.8", "6", "50"])
    def test_against_independent_integrator(self, tau, lam):
        mine = integrate_lame(tau, lam)
        ref1 = _dop853(tau, lam, 0).y[:, -1]
        ref2 = _dop853(tau, lam, 1).y[:, -1]
        got1 = (mine.c_1, mine.cp_1, mine.s_1, mine.sp_1)
        got2 = (mine.c_it, mine.cp_it, mine.s_it_imag, mine.sp_it)
        np.testing.assert_allclose(got1, ref1, rtol=1e-9)
        np.testing.assert_allclose(got2, ref2, rtol=1e-9)

    def test_oscillatory_lambda_raises_with_census(self):
        with pytest.raises(BracketError, match=r"flip census \(1, 1, 1, 1\)"):
            integrate_lame(1.0, -15.0)
        # the imaginary leg oscillates; the census counts the sign
        # changes of c, c', s and s' between the grid's nodes, which must
        # be those of a dense DOP853 solution sampled at the same nodes
        tau, lam = 50.0, 1e4
        dense = _dop853(tau, lam, 1, dense_output=True).sol(tau * lame._NODES)
        census = tuple(np.count_nonzero(dense[:, :-1] * dense[:, 1:] < 0.0, axis=1).tolist())
        assert census == (418, 417, 417, 418)
        with pytest.raises(BracketError, match=re.escape(
                f"(0, 0, 0, 0) on [0,1], {census} on [0,i*tau]")):
            integrate_lame(tau, lam)

    @pytest.mark.parametrize("tau", [0.5, 6.0, 50.0])
    def test_census_window_edges_match_dense_integration(self, tau):
        # Lowering lambda on the real leg, or raising it on the imaginary
        # one, makes the first zero of c enter at the leg's far end,
        # which is a node of every grid.  So the edge of the
        # oscillation-free window, bisected on the flip census, is where
        # DOP853's c vanishes at that end.
        legs = lame._Legs(tau)
        for leg, outward in ((0, -1.0), (1, 1.0)):
            def oscillates(lam):
                with np.errstate(over="ignore", invalid="ignore"):
                    flips = lame._magnus_legs(legs, lam)[1][leg]
                return flips[0].any()  # c or s

            calm, wild = 0.0, outward
            while not oscillates(wild):
                calm, wild = wild, 2.0 * wild
            while (mid := 0.5 * (calm + wild)) not in (calm, wild):
                calm, wild = (calm, mid) if oscillates(mid) else (mid, wild)
            edge = brentq(lambda lam: _dop853(tau, lam, leg).y[0, -1],
                          calm * (1.0 - 1e-8), calm * (1.0 + 1e-8),
                          xtol=1e-15 * abs(calm))
            assert calm == pytest.approx(edge, rel=1e-10)

    @pytest.mark.parametrize("tau, lam", [(50.0, -1e4), (0.02, 1e6), (50.0, 1e4)])
    def test_far_lambda_raises_promptly(self, tau, lam):
        t0 = time.perf_counter()
        with pytest.raises(BracketError):
            integrate_lame(tau, lam)
        assert time.perf_counter() - t0 < 2.0

    def test_overflow_raises_bracket_error(self):
        # only the growing leg overflows, the other one oscillates; the
        # message names the leg that overflowed
        for tau, lam, leg in ((0.02, 1e6, 0), (50.0, -1e4, 1)):
            with np.errstate(over="ignore", invalid="ignore"):
                ends = lame._magnus_legs(lame._Legs(tau), lam)[0]
            assert [np.isfinite(end).all() for end in ends] == [leg == 1, leg == 0]
            with pytest.raises(BracketError, match=re.escape(
                    f"overflowed on a leg of length {(1.0, tau)[leg]}")):
                integrate_lame(tau, lam)

    def test_square_legs_swap_under_lambda_reflection(self):
        # wp(iz) = -wp(z) on the square lattice, so the imaginary leg's
        # equation at lambda is the real leg's at -lambda
        legs = lame._Legs(1.0)
        for lam in (-0.5, -0.1, 0.1, 0.5):
            imag = lame._magnus_legs(legs, lam)[0][1]
            real = lame._magnus_legs(legs, -lam)[0][0]
            np.testing.assert_allclose(imag, real, rtol=1e-14, atol=0.0)

    def test_rejects_nonpositive_tau(self):
        # 0.0043 overflowed in the potential quotient before the range check
        for tau in (-1.0, 0.0043, 60.0):
            with pytest.raises(ValueError):
                integrate_lame(tau, -0.5)

    def test_rejects_a_nan_accessory_parameter(self):
        # a nan used to reach the legs and raise BracketError as an overflow
        with pytest.raises(ValueError, match=r"lambda_acc = nan is not a number"):
            integrate_lame(1.0, math.nan)


class TestCircleGeometry:
    def test_contact_point_at_solve(self):
        sol = solve_accessory(0.8)
        inv = sol.circles
        # the contact point candidate on the first circle, from (a1, r1)
        # alone; it lands on the second circle precisely when the root
        # function vanishes
        p = math.sqrt(inv.a1**2 - inv.r1**2)
        z0 = p * (p + 1j * inv.r1) / inv.a1
        assert abs(z0 - inv.a1) == pytest.approx(inv.r1, rel=1e-12)
        assert abs(z0 - 1j * inv.a2) == pytest.approx(inv.r2, rel=1e-8)
        assert abs(inv.tangency_residual()) < 1e-10

    def test_invariants_require_positive_ratios(self):
        data = integrate_lame(0.8, -0.083053464)
        bad = type(data)(c_1=data.c_1, cp_1=data.cp_1, s_1=-data.s_1,
                         sp_1=data.sp_1, c_it=data.c_it, cp_it=data.cp_it,
                         s_it_imag=data.s_it_imag, sp_it=data.sp_it,
                         wronskian_drift=data.wronskian_drift)
        with pytest.raises(BracketError):
            circle_invariants(bad)


class TestAccessorySolve:
    def test_square_point(self):
        sol = solve_accessory(1.0)
        assert sol.cross_ratio == pytest.approx(2.0, abs=1e-6)
        assert abs(sol.lambda_acc) < 1e-4
        assert abs(sol.circles.a1 - sol.circles.a2) < 1e-5
        assert sol.diagnostics["tangency_residual"] < 1e-10
        assert sol.diagnostics["wronskian_drift"] < 1e-9

    @pytest.mark.parametrize("tau,lam,cr", [
        (0.8, -0.083053464, 2.41174363),
        (0.5, -0.269520542, 3.95166552),
        (0.2, -0.447282268, 14.64408258),
    ])
    def test_frozen_anchors(self, tau, lam, cr):
        sol = solve_accessory(tau)
        assert sol.lambda_acc == pytest.approx(lam, rel=1e-6)
        assert sol.cross_ratio == pytest.approx(cr, rel=1e-7)
        assert sol.modulus == pytest.approx(1.0 / tau, rel=1e-15)
        assert sol.cross_ratio == pytest.approx(
            (sol.circles.a1 / sol.circles.r1) ** 2, rel=1e-13)

    def test_quarter_turn_lambda_scaling(self):
        direct = solve_accessory(1.5)
        twin = solve_accessory(1.0 / 1.5)
        assert direct.lambda_acc == pytest.approx(0.0712564393, rel=1e-6)
        assert direct.lambda_acc == pytest.approx(
            -twin.lambda_acc / 1.5**2, rel=1e-8)

    def test_cross_ratio_monotone_in_tau(self):
        crs = [solve_accessory(tau).cross_ratio
               for tau in (0.9, 0.7, 0.5, 0.3)]
        assert all(a < b for a, b in zip(crs, crs[1:]))

    def test_warm_bracket_reproduces_scan(self):
        cold = solve_accessory(0.5)
        lam = cold.lambda_acc
        warm = solve_accessory(0.5, bracket=(lam - 0.01, lam + 0.01))
        assert warm.lambda_acc == pytest.approx(lam, abs=1e-10)

    def test_nan_seeds_fall_back_to_the_scan(self):
        cold = solve_accessory(0.5)
        sol = solve_accessory(0.5, bracket=(math.nan, math.nan))
        assert not sol.diagnostics["warm"]
        assert sol.lambda_acc == cold.lambda_acc

    def test_seeds_need_not_straddle_the_root(self, monkeypatch):
        cold = solve_accessory(0.5)
        lam = cold.lambda_acc
        assert not cold.diagnostics["warm"]
        tried = []
        integrate = lame._integrate_with

        def record(legs, lam_):
            tried.append(lam_)
            return integrate(legs, lam_)

        monkeypatch.setattr(lame, "_integrate_with", record)
        seeds = (lam + 1e-3, lam + 2e-3)
        warm = solve_accessory(0.5, bracket=seeds)
        assert warm.diagnostics["warm"] and warm.bracket == seeds
        assert warm.lambda_acc == pytest.approx(lam, abs=1e-12)
        # every iterate is integrated once, the last one included
        assert warm.diagnostics["lambda_trials"] == len(tried) == len(set(tried)) <= 8
        assert tried[-1] == warm.lambda_acc

    @pytest.mark.parametrize("tau,most", [(0.05, 14), (0.5, 14), (1.0, 9), (2.0, 15), (5.0, 19)])
    def test_cold_solve_integrates_each_lambda_once(self, monkeypatch, tau, most):
        # most: the node bisection plus the polish, 11, 11, 6, 12 and 16
        # integrations, with a margin of 3; the linear walk up the same
        # nodes made 37, 43, 43, 51 and 54
        tried = []
        integrate = lame._integrate_with

        def record(legs, lam_):
            tried.append(lam_)
            return integrate(legs, lam_)

        monkeypatch.setattr(lame, "_integrate_with", record)
        sol = solve_accessory(tau)
        assert not sol.diagnostics["warm"]
        assert len(set(tried)) == len(tried) == sol.diagnostics["lambda_trials"] <= most
        assert sol.lambda_acc in tried
        assert abs(sol.diagnostics["tangency_residual"]) < 1e-13

    def test_cold_scan_takes_an_exact_zero_at_the_square(self):
        # at tau = 1 the legs are mirror images, so the root function is
        # exactly 0 at lambda = 0, node 42 of the grid; missing it would
        # end the search without a sign change.  The bisection ends
        # there after 6 integrations (nodes 32, 48, 40, 44, 42 and 41).
        sol = solve_accessory(1.0)
        assert sol.lambda_acc == 0.0 and sol.bracket == (0.0, 0.0)
        assert sol.diagnostics["lambda_trials"] == 6
        assert abs(sol.diagnostics["tangency_residual"]) < 1e-10

    @pytest.mark.parametrize("tau", [13.85, 25.52, 34.14, 38.15])
    def test_cold_scan_rejects_a_cancelled_zero(self, tau):
        # here a1^2 and r1 hypot(a1, a2) cancel to an exact 0 at
        # lambda = 0, far from tangency: the scan must not take it
        inv = circle_invariants(integrate_lame(tau, 0.0))
        assert lame._signed_root(inv) == 0.0 and inv.tangency_residual() > 1e-10
        try:
            sol = solve_accessory(tau)
        except SolverFailure:
            return
        assert abs(sol.diagnostics["tangency_residual"]) < 1e-10

    def test_unbracketed_tau_fails_after_one_scan(self, monkeypatch):
        # from about tau = 5.4 up no pair of neighbouring nodes of the
        # 64 over [-2, 1] shows a sign change: only node 42 (lambda = 0)
        # has a root value, and it is positive.  The solve gives up after
        # the 6 nodes of one bisection, each integrated once, and reports
        # them as lambda_trials.
        tried = []
        integrate = lame._integrate_with

        def record(legs, lam_):
            tried.append(lam_)
            return integrate(legs, lam_)

        monkeypatch.setattr(lame, "_integrate_with", record)
        with pytest.raises(SolverFailure, match=re.escape(
                "no sign change of the tangency root function at tau=6.0")) as err:
            solve_accessory(6.0)
        nodes = np.linspace(-2.0, 1.0, 64).tolist()
        assert set(tried) <= set(nodes) and len(set(tried)) == len(tried) == 6
        assert err.value.diagnostics == {"tau": 6.0, "lambda_trials": 6}

    def test_failure_counts_every_trial_of_the_solve(self):
        # a seed outside the window costs the secant one trial before the
        # node search's six; lambda_trials counts both, as a solve's does
        with pytest.raises(SolverFailure) as err:
            solve_accessory(6.0, bracket=(50.0, 50.0 + 1e-6))
        assert err.value.diagnostics == {"tau": 6.0, "lambda_trials": 7}

    _ORACLE_TAUS = sorted(np.exp(np.random.default_rng(2024).uniform(
        math.log(0.005), math.log(50.0), 100)).tolist()) + [
        1.0, 5.3, 5.35, 5.4, 6.0, 13.85, 25.52, 34.14, 38.15, 50.0]

    def test_node_bisection_matches_the_linear_walk(self):
        # the bisection finds the walk's bracket, so every solve is the
        # walk's bit for bit and every failure has the walk's message
        failed = 0
        for tau in self._ORACLE_TAUS:
            try:
                lam, bracket, data, inv = _walk(tau)
            except SolverFailure as want:
                with pytest.raises(SolverFailure) as got:
                    solve_accessory(tau)
                assert str(got.value) == str(want)
                assert got.value.diagnostics["tau"] == want.diagnostics["tau"], tau
                failed += 1
                continue
            sol = solve_accessory(tau)
            assert _bits(sol.lambda_acc, *sol.bracket) == _bits(lam, *bracket), tau
            c, ref = sol.circles, inv
            assert _bits(c.a1, c.r1, c.a2, c.r2) == _bits(ref.a1, ref.r1, ref.a2, ref.r2), tau
            assert _bits(sol.cross_ratio, sol.diagnostics["tangency_residual"],
                         sol.diagnostics["wronskian_drift"]) == _bits(
                (ref.a1 / ref.r1) ** 2, ref.tangency_residual(), data.wronskian_drift), tau
        # every tau from about 5.4 up fails, on the sweep and on the list
        assert failed == sum(tau >= 5.4 for tau in self._ORACLE_TAUS)

    def test_bracket_errors_tell_the_side(self):
        # below the window the real leg oscillates and above it the
        # imaginary one; far below, the imaginary leg overflows, and far
        # above (at tau = 0.02) the real one does
        cases = ((6.0, -2.0, True), (6.0, -1e4, True), (50.0, -1e4, True),
                 (6.0, 0.0476, False), (6.0, 1.0, False), (50.0, 1e4, False),
                 (0.02, 1e6, False))
        for tau, lam, below in cases:
            with pytest.raises(BracketError) as err:
                circle_invariants(integrate_lame(tau, lam))
            assert err.value.below is below, (tau, lam)

    def test_cold_solves_leave_no_reference_cycles(self):
        # a node search that kept each BracketError kept its traceback
        # and, through the frames, the solve's _Legs in a cycle: 333
        # unreachable objects over these four solves, about 0.5 MB each
        # of leg arrays held until the collector ran
        gc.collect()
        gc.disable()
        try:
            for tau in (0.5, 6.0, 2.0, 10.0):
                try:
                    solve_accessory(tau)
                except SolverFailure:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_cold_solves_reuse_their_scratch(self, fresh_python):
        # In a fresh interpreter without scipy, glibc can map fresh pages
        # for the arrays a lambda trial would allocate: about 45,000
        # minor faults over these four solves with none of the per-solve
        # scratch, 21,000 with only the product arrays in it, and
        # 850-1,500 with everything a trial writes in it.
        script = ("import resource, sys\n"
                  "from punctorus import lame\n"
                  "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "for tau in (0.5, 2.0, 0.1, 1.5):\n"
                  "    lame.solve_accessory(tau)\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0,"
                  " any(m.startswith('scipy') for m in sys.modules))\n")
        faults, scipy_loaded = fresh_python("-c", script).stdout.split()
        assert scipy_loaded == "False"
        assert int(faults) <= 2000

    def test_oscillatory_seed_falls_back_to_the_scan(self):
        cold = solve_accessory(0.5)
        got = solve_accessory(0.5, bracket=(50.0, 50.0 + 1e-6))
        assert not got.diagnostics["warm"]
        assert got.bracket == cold.bracket
        assert got.lambda_acc == cold.lambda_acc
        assert got.diagnostics["lambda_trials"] == cold.diagnostics["lambda_trials"] + 1

    def test_record_shape(self):
        rec = solve_accessory(0.8).as_record()
        assert set(rec) == {"tau", "lambda", "a1", "r1", "a2", "r2",
                            "cross_ratio", "modulus", "tangency_residual",
                            "wronskian_drift"}
        assert all(isinstance(v, float) for v in rec.values())

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            solve_accessory(TAU_MIN / 2.0)
        with pytest.raises(ValueError):
            solve_accessory(TAU_MAX + 1.0)

    def test_failure_carries_diagnostics(self):
        err = SolverFailure("no bracket", {"tau": 3.0})
        assert err.diagnostics == {"tau": 3.0}
