"""Elliptic machinery: theta series, the lattice potential, and the
accessory-parameter solve.

The chain implemented here goes from a rectangular lattice with half
period ratio tau to one point of the modulus-to-cross-ratio map: build
the doubly periodic potential from theta quotients, integrate the
second-order equation w'' = (lambda - potential) w along the real and
imaginary half-period segments, read four circle invariants off the
endpoint data, and move lambda until the two circles become tangent.

Everything is real arithmetic on the two legs (the potential is real on
both axes), with series and quotients arranged so no intermediate ever
overflows over the supported range tau in [0.005, 50].
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .hypgeom import ComplexPoint

__all__ = [
    "TAU_MIN",
    "TAU_MAX",
    "BracketError",
    "SolverFailure",
    "wp",
    "LameEndpointData",
    "integrate_lame",
    "CircleInvariants",
    "circle_invariants",
    "AccessorySolve",
    "solve_accessory",
]

_PI = math.pi

# Below about tau = 0.0044 (m above about 226) the potential quotient in
# _make_potentials overflows on the far end of the real leg and raises a
# bare OverflowError; 0.005 keeps that path unreachable.
TAU_MIN = 0.005
TAU_MAX = 50.0


def _check_tau(tau: float) -> None:
    if not TAU_MIN <= tau <= TAU_MAX:
        raise ValueError(f"tau={tau} outside the supported range "
                         f"[{TAU_MIN}, {TAU_MAX}]")


# Relative tolerance of the RKF45 legs in a solve, and the looser one
# of the coarse lambda scan that looks for a sign change.
_SOLVE_RTOL = 1e-11
_SCAN_RTOL = 1e-7

# Trial steps (accepted or rejected) allowed on one leg.  Solves over
# the supported range take at most about 2.0k (the failing lambda scan
# at tau = 50), and at most 250 for tau below 0.02, scans included.
_MAX_STEPS = 10_000


class BracketError(RuntimeError):
    """Endpoint data shows oscillation: lambda is outside the admissible
    bracket and no circle invariants exist."""


class SolverFailure(RuntimeError):
    """The tangency root could not be bracketed.

    Carries a ``diagnostics`` dict describing the scan that failed.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# the lattice potential
#
# Series are carried through exponent/multiplier lists so every hyperbolic
# evaluation can shift the overall scale into the exponents, keeping each
# one nonpositive.  The quarter-power of the nome cancels in the quotient,
# so the lists track q^(n(n+1)) and q^(n^2) directly.


def _term_list(logq: float, kind: str) -> list[tuple[float, int, float]]:
    out: list[tuple[float, int, float]] = []
    for n in range(24):
        if kind == "t1":
            K, m, sgn = n * (n + 1) * logq, 2 * n + 1, float((-1) ** n)
        else:  # t3
            if n == 0:
                continue
            K, m, sgn = n * n * logq, 2 * n, 2.0
        if n >= 3 and math.exp(K) < 1e-18:
            break
        out.append((K, m, sgn))
    return out


def _series_prefactor(logq: float) -> float:
    t1p = sum(s * m * math.exp(K) for K, m, s in _term_list(logq, "t1"))
    t30 = 1.0 + sum(s * math.exp(K) for K, m, s in _term_list(logq, "t3"))
    return _PI * _PI * math.exp(logq) * (t1p / t30) ** 2


def _make_potentials(tau: float) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Scalar evaluators of the potential on the two half-period legs.

    Returns (on_real_axis, on_imaginary_axis); the second takes the real
    coordinate t of z = it.  Below tau = 1 the lattice is evaluated
    through its quarter-turn twin so the nome stays small either way.
    """
    M = tau if tau >= 1.0 else 1.0 / tau
    logq = -_PI * M
    pref = _series_prefactor(logq)
    c1 = _term_list(logq, "t1")
    c3 = _term_list(logq, "t3")

    def osc(u: float) -> float:
        s1 = sum(s * math.exp(K) * math.sin(m * u) for K, m, s in c1)
        s3 = 1.0 + sum(s * math.exp(K) * math.cos(m * u) for K, m, s in c3)
        return (s1 / s3) ** 2

    def hyp(y: float) -> float:
        # e^{-y}-scaled sinh/cosh sums: every exponent K + (m-1)y stays
        # nonpositive on the legs, so nothing overflows.
        s1 = sum(s * 0.5 * (math.exp(K + (m - 1) * y) - math.exp(K - (m + 1) * y))
                 for K, m, s in c1)
        s3 = math.exp(-y) + sum(s * 0.5 * (math.exp(K + (m - 1) * y) + math.exp(K - (m + 1) * y))
                                for K, m, s in c3)
        return (s1 / s3) ** 2

    if tau >= 1.0:
        def on_real(x: float) -> float:
            return -pref * osc(_PI * x / 2.0)

        def on_imag(t: float) -> float:
            return pref * hyp(_PI * t / 2.0)
    else:
        def on_real(x: float) -> float:
            return -M * M * pref * hyp(_PI * M * x / 2.0)

        def on_imag(t: float) -> float:
            return M * M * pref * osc(_PI * M * t / 2.0)

    return on_real, on_imag


def wp(z: complex, tau: float) -> complex:
    """The lattice potential at a general point, periods 2 and 2i tau.

    Real and negative on the real axis, real and positive on the
    imaginary one, with its double pole at 1 + i tau; evaluation within
    1e-8 of the pole raises.  The argument is first reduced into the
    quarter fundamental domain [0, 1] x [0, tau].
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
        flip = False
    else:
        M, w = 1.0 / tau, 1j * (complex(x, y) / tau)
        flip = True
    logq = -_PI * M
    pref = _series_prefactor(logq)
    u = _PI * w / 2.0
    b = abs(u.imag)
    c1 = _term_list(logq, "t1")
    c3 = _term_list(logq, "t3")
    s1 = sum(s * (cmath.exp(K - b + 1j * m * u) - cmath.exp(K - b - 1j * m * u)) / 2j
             for K, m, s in c1)
    s3 = cmath.exp(-b + 0j) + sum(
        s * (cmath.exp(K - b + 1j * m * u) + cmath.exp(K - b - 1j * m * u)) / 2.0
        for K, m, s in c3)
    val = -pref * (s1 / s3) ** 2
    if flip:
        val = -(M * M) * val
    return val.conjugate() if conj else val


# ---------------------------------------------------------------------------
# the two-leg integration


@dataclass(frozen=True)
class LameEndpointData:
    """Endpoint values of the c and s solutions on both legs.

    c(0) = 1, c'(0) = 0 and s(0) = 0, s'(0) = 1.  On the imaginary leg
    c stays real while s is purely imaginary; s_it_imag holds its
    imaginary part and cp_it the t-derivative of the real function
    c(it), so every stored number is real.
    """

    c_1: float
    cp_1: float
    s_1: float
    sp_1: float
    c_it: float
    cp_it: float
    s_it_imag: float
    sp_it: float
    wronskian_drift: float


def _rkf45_leg(V: Callable[[float], float], L: float, rtol: float,
               atol: float = 1e-12) -> tuple[tuple[float, float, float, float],
                                             tuple[int, int, int, int], float]:
    """Integrate y'' = V(t) y for the (c, s) columns over [0, L].

    Fehlberg 4(5) with a shared potential evaluation per stage across
    both columns, per-component error control, and sign-change counting
    on accepted steps.  Returns (endpoint 4-tuple, flip census, |W - 1|).
    Raises :class:`BracketError` when the solution overflows (the error
    estimate is no longer finite) or the leg needs more than _MAX_STEPS
    trial steps; both happen only for lambda far outside the bracket.
    """
    t = 0.0
    y = (1.0, 0.0, 0.0, 1.0)
    h = L / 64.0
    flips = [0, 0, 0, 0]
    prev = list(y)
    first = True

    def deriv(v: float, w: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
        return (w[1], v * w[0], w[3], v * w[2])

    steps = 0
    while t < L:
        steps += 1
        if steps > _MAX_STEPS:
            raise BracketError(f"{_MAX_STEPS} RKF45 steps did not finish a leg of length {L}")
        if t + h > L:
            h = L - t
        k1 = deriv(V(t), y)
        y2 = tuple(y[i] + h * k1[i] / 4 for i in range(4))
        k2 = deriv(V(t + h / 4), y2)
        y3 = tuple(y[i] + h * (3 * k1[i] + 9 * k2[i]) / 32 for i in range(4))
        k3 = deriv(V(t + 3 * h / 8), y3)
        y4 = tuple(y[i] + h * (1932 * k1[i] - 7200 * k2[i] + 7296 * k3[i]) / 2197
                   for i in range(4))
        k4 = deriv(V(t + 12 * h / 13), y4)
        y5 = tuple(y[i] + h * (439 * k1[i] / 216 - 8 * k2[i] + 3680 * k3[i] / 513
                               - 845 * k4[i] / 4104) for i in range(4))
        k5 = deriv(V(t + h), y5)
        y6 = tuple(y[i] + h * (-8 * k1[i] / 27 + 2 * k2[i] - 3544 * k3[i] / 2565
                               + 1859 * k4[i] / 4104 - 11 * k5[i] / 40) for i in range(4))
        k6 = deriv(V(t + h / 2), y6)
        ynew = tuple(y[i] + h * (16 * k1[i] / 135 + 6656 * k3[i] / 12825
                                 + 28561 * k4[i] / 56430 - 9 * k5[i] / 50 + 2 * k6[i] / 55)
                     for i in range(4))
        err = max(
            abs(h * (k1[i] / 360 - 128 * k3[i] / 4275 - 2197 * k4[i] / 75240
                     + k5[i] / 50 + 2 * k6[i] / 55))
            / (atol + rtol * max(abs(y[i]), abs(ynew[i])))
            for i in range(4))
        if not math.isfinite(err):
            raise BracketError(f"the solution overflowed at t={t} on a leg of length {L}")
        if err <= 1.0:
            t += h
            if not first:
                for i in range(4):
                    if ynew[i] * prev[i] < 0.0:
                        flips[i] += 1
            else:
                # leaving the initial point, where cp and s sit exactly
                # at zero; the first move away is not a sign change
                first = False
            prev = list(ynew)
            y = ynew
        fac = 2.0 if err < 1e-30 else min(2.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac
    c, cp, s, sp = y
    return y, tuple(flips), abs(c * sp - cp * s - 1.0)


def _integrate_with(pots, tau: float, lambda_acc: float, rtol: float) -> LameEndpointData:
    on_real, on_imag = pots
    e1, f1, w1 = _rkf45_leg(lambda x: lambda_acc - on_real(x), 1.0, rtol)
    e2, f2, w2 = _rkf45_leg(lambda t: on_imag(t) - lambda_acc, tau, rtol)
    if f1[0] or f1[2] or f2[0] or f2[2]:
        raise BracketError(
            "c or s changes sign along a leg (flip census "
            f"{f1} on [0,1], {f2} on [0,i*tau]): lambda={lambda_acc} is "
            "outside the oscillation-free bracket")
    return LameEndpointData(
        c_1=e1[0], cp_1=e1[1], s_1=e1[2], sp_1=e1[3],
        c_it=e2[0], cp_it=e2[1], s_it_imag=e2[2], sp_it=e2[3],
        wronskian_drift=max(w1, w2))


def integrate_lame(tau: float, lambda_acc: float, rtol: float = _SOLVE_RTOL) -> LameEndpointData:
    """Endpoint data of the c, s solutions at z = 1 and z = i tau.

    Integrates the real form of the equation separately on each leg.
    Raises :class:`BracketError` when either fundamental solution
    oscillates, which is the signature of an accessory parameter outside
    the admissible bracket, and ValueError for tau outside
    [TAU_MIN, TAU_MAX].
    """
    _check_tau(tau)
    return _integrate_with(_make_potentials(tau), tau, lambda_acc, rtol)


# ---------------------------------------------------------------------------
# circle invariants and the tangency solve


@dataclass(frozen=True)
class CircleInvariants:
    """Center/radius data of the two boundary circles, plus the contact
    point candidate z0 on the first of them."""

    a1: float
    r1: float
    a2: float
    r2: float
    z0: ComplexPoint

    def tangency_residual(self) -> float:
        """(r1/a1)^2 + (r2/a2)^2 - 1, zero exactly at tangency."""
        return (self.r1 / self.a1) ** 2 + (self.r2 / self.a2) ** 2 - 1.0


def _signed_root(inv: CircleInvariants) -> float:
    """Sign-changing reformulation of the tangency condition.

    a1^2 - r1*sqrt(a1^2 + a2^2) vanishes together with the direct
    residual but crosses zero transversally along the lambda sweep,
    which makes it the better bisection target.
    """
    return inv.a1 * inv.a1 - inv.r1 * math.hypot(inv.a1, inv.a2)


def circle_invariants(data: LameEndpointData) -> CircleInvariants:
    """Half-sum/half-difference invariants of the endpoint ratios.

    The second pair carries the sign fix relative to the symmetric
    first pair (difference, not sum, for the radius); the ratios must
    all be positive for the circles to exist, anything else meaning the
    accessory parameter left the bracket.
    """
    if data.c_1 == 0 or data.cp_1 == 0 or data.c_it == 0 or data.cp_it == 0:
        raise BracketError("vanishing c or c' endpoint: no circle invariants")
    q1 = data.s_1 / data.c_1
    q2 = data.sp_1 / data.cp_1
    q3 = data.s_it_imag / data.c_it
    q4 = data.sp_it / data.cp_it
    if min(q1, q2, q3, q4) <= 0:
        raise BracketError(
            f"endpoint ratios ({q1:.3g}, {q2:.3g}, {q3:.3g}, {q4:.3g}) "
            "must all be positive")
    a1, r1 = 0.5 * (q1 + q2), 0.5 * abs(q1 - q2)
    a2, r2 = 0.5 * (q3 + q4), 0.5 * abs(q3 - q4)
    p = cmath.sqrt(complex(a1 * a1 - r1 * r1, 0.0))
    z0 = p * (p + 1j * r1) / a1
    return CircleInvariants(a1=a1, r1=r1, a2=a2, r2=r2,
                            z0=ComplexPoint.from_complex(z0))


@dataclass(frozen=True)
class AccessorySolve:
    """One solved point of the modulus-to-cross-ratio correspondence."""

    tau: float
    lambda_acc: float
    bracket: tuple[float, float]
    cross_ratio: float
    modulus: float
    circles: CircleInvariants
    diagnostics: dict

    def as_record(self) -> dict:
        """Flat serializable record for CSV/JSON emission."""
        return {
            "tau": self.tau,
            "lambda": self.lambda_acc,
            "a1": self.circles.a1,
            "r1": self.circles.r1,
            "a2": self.circles.a2,
            "r2": self.circles.r2,
            "cross_ratio": self.cross_ratio,
            "modulus": self.modulus,
            "tangency_residual": self.diagnostics["tangency_residual"],
            "wronskian_drift": self.diagnostics["wronskian_drift"],
        }


def solve_accessory(tau: float, bracket: tuple[float, float] | None = None) -> AccessorySolve:
    """Find the accessory parameter making the two circles tangent.

    A warm-start bracket can be supplied (table builds hand one solve's
    root neighborhood to the next); otherwise a coarse scan over
    progressively wider lambda ranges locates a sign change of the root
    function, and brentq polishes it.  Raises :class:`SolverFailure`
    with scan diagnostics when no sign change exists.
    """
    _check_tau(tau)
    pots = _make_potentials(tau)

    def root_at(lam: float, rt: float = _SOLVE_RTOL) -> float:
        try:
            return _signed_root(circle_invariants(_integrate_with(pots, tau, lam, rt)))
        except BracketError:
            return math.nan

    lo = hi = None
    if bracket is not None:
        fa, fb = root_at(bracket[0]), root_at(bracket[1])
        if math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0:
            lo, hi = bracket
    scanned: list[tuple[float, float]] = []
    if lo is None:
        on_real, _ = pots
        pot_floor = min(on_real(x) for x in np.linspace(1e-9, 1.0, 41))
        for cand in (-2.0, -8.0, -32.0, pot_floor):
            xs = np.linspace(cand, 1.0, 64)
            vals = np.array([root_at(x, _SCAN_RTOL) for x in xs])
            scanned.append((cand, float(np.count_nonzero(~np.isnan(vals)))))
            ok = ~np.isnan(vals)
            for i in np.where(ok[:-1] & ok[1:] & (vals[:-1] * vals[1:] < 0))[0]:
                fa, fb = root_at(xs[i].item()), root_at(xs[i + 1].item())
                if math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0:
                    lo, hi = xs[i].item(), xs[i + 1].item()
                    break
            if lo is not None:
                break
        if lo is None:
            raise SolverFailure(
                f"no sign change of the tangency root function at tau={tau}",
                diagnostics={"tau": tau, "scan_starts": [s[0] for s in scanned],
                             "finite_fraction": [s[1] / 64.0 for s in scanned]})

    lam = brentq(root_at, lo, hi, xtol=1e-13, rtol=9e-16)
    data = _integrate_with(pots, tau, lam, _SOLVE_RTOL)
    inv = circle_invariants(data)
    diagnostics = {
        "tangency_residual": inv.tangency_residual(),
        "root_gap": _signed_root(inv),
        "wronskian_drift": data.wronskian_drift,
    }
    return AccessorySolve(
        tau=tau, lambda_acc=lam, bracket=(lo, hi),
        cross_ratio=(inv.a1 / inv.r1) ** 2, modulus=1.0 / tau,
        circles=inv, diagnostics=diagnostics)
