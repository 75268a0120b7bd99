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
overflows over the supported range tau in [0.005, 50].  The potential
is evaluated once per tau, as arrays at the three Gauss points of
every step of a grid of 256, 512 or 1024 steps on each leg, sized by
the nome scale max(tau, 1/tau) (see _grid); every lambda trial then
builds the sixth-order Magnus step matrices of both legs at once
(Iserles, Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta
Numerica 2000; the three-point scheme of Blanes, Casas, Oteo and Ros,
Phys. Rep. 470, 2009) and takes their prefix products as a blocked
parallel scan, each stage of 2x2 products one einsum call over the
stacked legs.  The work per integration is fixed by tau's grid.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TAU_MIN",
    "TAU_MAX",
    "BracketError",
    "SolverFailure",
    "LameEndpointData",
    "integrate_lame",
    "CircleInvariants",
    "circle_invariants",
    "AccessorySolve",
    "solve_accessory",
]

_PI = math.pi

# Below about tau = 0.0044 (m above about 226) the potential quotient in
# _leg_potentials overflows on the far end of the real leg; 0.005 keeps
# that path unreachable.
TAU_MIN = 0.005
TAU_MAX = 50.0


def _check_tau(tau: float) -> None:
    if not TAU_MIN <= tau <= TAU_MAX:
        raise ValueError(f"tau={tau} outside the supported range "
                         f"[{TAU_MIN}, {TAU_MAX}]")


# Steps per leg.  The nodes t_k = L sin(pi k / 2N) crowd toward the far
# end of the leg, where the potential grows fastest.  The sixth-order
# error of the endpoint data depends on sqrt(M)/N alone, M = max(tau,
# 1/tau): (M, N) = (50, 256) and (200, 512) both read 1.8e-11 in the
# cross ratio, (50, 512) and (200, 1024) 2.7e-13 and 3.0e-13.  So tau
# gets N = 128 sqrt(M) rounded up to a power of two, within [256, 1024]
# (see _grid), which keeps sqrt(M)/N at or below its value at M = 64 on
# 1024 steps; tau and 1/tau share M, and so their grid.  Against the
# same scheme on 16384 steps, seeded at each root, the cross ratio is
# off by at most 4.3e-13 relative over 41 tau in [0.005, 5.3], at
# tau = 0.33, where the 1024-step grid reads the same; it reads 2.9e-13
# at TAU_MIN.  A trial's prefix product runs over N / _BLOCK blocks of
# _BLOCK steps: _BLOCK - 1 sequential products inside all blocks at
# once, then log2(N / _BLOCK) doubling rounds across them.  Short
# blocks keep the sequential part short and long ones the doubling
# part; each stage is one einsum call, so the call count sets the cost.
# A whole trial (both legs, tau = 0.5, 1024 steps) took a median 0.18,
# 0.16, 0.16 and 0.19 ms at _BLOCK = 2, 4, 8 and 16 (2-core Xeon,
# numpy 2.4).  Another block size changes the association of the
# products, and so the bits.
_BLOCK = 4
_EYE = np.eye(2)
# The potential's series never keep more than these frequencies (the
# 1e-18 cut of _theta_terms keeps the most terms at M = 1).
_SINE_FREQUENCIES = np.arange(1, 8, 2)
_COSINE_FREQUENCIES = np.arange(2, 7, 2)


class _Points(NamedTuple):
    """Fractions s of a leg as the potential reads them: u = (pi/2) s,
    flattened, the rows sin((2n+1) u) for n = 0..3 and cos(2n u) for
    n = 1..3, none of which depends on tau, and the shape of s."""

    shape: tuple[int, ...]
    u: np.ndarray
    sines: np.ndarray
    cosines: np.ndarray


def _points(s) -> _Points:
    u = _PI / 2.0 * np.ravel(s)
    return _Points(np.shape(s), u, np.sin(_SINE_FREQUENCIES[:, None] * u),
                   np.cos(_COSINE_FREQUENCIES[:, None] * u))


class _Grid(NamedTuple):
    """One grid of sin-graded steps, as fractions of a leg: its nodes,
    its steps and the potential's points at the three Gauss points of
    every step."""

    nodes: np.ndarray
    steps: np.ndarray
    gauss: _Points


def _make_grid(n: int) -> _Grid:
    nodes = np.sin(np.linspace(0.0, _PI / 2.0, n + 1))
    steps = np.diff(nodes)
    gauss = (nodes[:-1, None]
             + steps[:, None] * (0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0))
    return _Grid(nodes, steps, _points(gauss))


_GRIDS = {n: _make_grid(n) for n in (256, 512, 1024)}


def _grid(tau: float) -> _Grid:
    """The grid of tau: 128 sqrt(M) steps, M = max(tau, 1/tau), rounded
    up to a power of two within [256, 1024]."""
    M = tau if tau >= 1.0 else 1.0 / tau
    return _GRIDS[256 if M <= 4.0 else 512 if M <= 16.0 else 1024]


# Secant steps a seeded solve may take before it falls back to the node
# search, and steps the polish of the search's bracket may take.
_SECANT_STEPS = 12
_POLISH_STEPS = 100
# The lambda nodes a cold solve searches for its bracket.
_LAMBDAS = np.linspace(-2.0, 1.0, 64).tolist()


class BracketError(RuntimeError):
    """Endpoint data shows oscillation: lambda is outside the admissible
    bracket and no circle invariants exist.

    below tells on which side of the window of oscillation-free legs
    lambda lies.  It is True when c or s changes sign on the real leg
    [0, 1] or one of its endpoint ratios is not positive, or when the
    imaginary leg [0, i tau], which grows the faster the lower lambda
    is, overflowed; it is False for the mirror cases.  The first check
    that fires decides: overflow before sign changes before ratios, the
    real leg before the imaginary one.
    """

    def __init__(self, message: str, below: bool):
        super().__init__(message)
        self.below = below


class SolverFailure(RuntimeError):
    """The tangency root could not be bracketed.

    Carries a ``diagnostics`` dict: when the node search found no
    bracket, tau and lambda_trials, the integrations the solve made, as
    in a solve's own diagnostics.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# the lattice potential
#
# Series are carried as exponent/frequency/weight arrays so every
# hyperbolic evaluation can shift the overall scale into the exponents,
# keeping each one nonpositive.  The quarter-power of the nome cancels in
# the quotient, so the exponents track q^(n(n+1)) and q^(n^2) directly.


def _theta_terms(logq: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(exponent, frequency, weight) arrays of the theta_1 sum and of the
    theta_3 sum less its constant 1, cut where the nome power drops below
    1e-18 (the exponents fall with n)."""
    n = np.arange(24)
    K1, K3 = n * (n + 1) * logq, n * n * logq
    t1 = (n < 3) | (np.exp(K1) >= 1e-18)
    t3 = (n > 0) & ((n < 3) | (np.exp(K3) >= 1e-18))
    return ((K1[t1], 2 * n[t1] + 1, (-1.0) ** n[t1]),
            (K3[t3], 2 * n[t3], np.full(np.count_nonzero(t3), 2.0)))


def _leg_potentials(tau: float, points: _Points) -> tuple[np.ndarray, np.ndarray]:
    """The potential at the fractions of the two half-period legs that
    points holds (see :func:`_points`).

    Returns (V(s) on the real axis, V(i tau s) on the imaginary one),
    each shaped like s.  Below tau = 1 the lattice is evaluated through
    its quarter-turn twin so the nome stays small either way.
    """
    M = tau if tau >= 1.0 else 1.0 / tau
    logq = -_PI * M
    (K1, m1, w1), (K3, m3, w3) = _theta_terms(logq)
    c1, c3 = w1 * np.exp(K1), w3 * np.exp(K3)
    pref = _PI * _PI * math.exp(logq) * ((c1 @ m1) / (1.0 + c3.sum())) ** 2
    K1, m1, K3, m3 = K1[:, None], m1[:, None], K3[:, None], m3[:, None]

    def osc():
        # the kept terms are the first rows: the exponents fall with n
        return (c1 @ points.sines[:len(c1)] / (1.0 + c3 @ points.cosines[:len(c3)])) ** 2

    def hyp(y):
        # e^{-y}-scaled sinh/cosh sums: every exponent K + (m-1)y stays
        # nonpositive on the legs, so nothing overflows.
        s1 = w1 @ (0.5 * (np.exp(K1 + (m1 - 1) * y) - np.exp(K1 - (m1 + 1) * y)))
        s3 = np.exp(-y) + w3 @ (0.5 * (np.exp(K3 + (m3 - 1) * y) + np.exp(K3 - (m3 + 1) * y)))
        return (s1 / s3) ** 2

    if tau >= 1.0:
        real, imag = -pref * osc(), pref * hyp(tau * points.u)
    else:
        real, imag = -M * M * pref * hyp(M * points.u), M * M * pref * osc()
    return real.reshape(points.shape), imag.reshape(points.shape)


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


class _Legs:
    """One tau's two legs, ready for lambda trials, and their scratch.

    On [0, 1] the equation reads y'' = (lambda - V) y and on [0, i tau]
    y'' = (V - lambda) y, V the potential at the three Gauss points of
    every step.  The sixth-order Magnus exponent of a step is
    Omega = [[d, e], [f, -d]] with d = d0 + d1 q2 and f = f0 + f1 q2,
    q2 the value of q at the middle Gauss point.  consts keeps what no
    trial changes: e, d0, d1, f0 and f1, which depend only on the step
    and on the differences of V across it, from which lambda cancels,
    and sign V at the middle points.  Each is a (leg, _BLOCK, blocks)
    array holding step b _BLOCK + j of a leg at [leg, j, b], so one
    trial builds the steps of both legs at once and each step of a
    block is one contiguous slice.  A trial writes every array it
    computes into the scratch: when it allocated them, glibc could
    return and map afresh tens of pages per trial, depending on how its
    allocation thresholds had moved before.  What a trial still
    allocates is a few arrays of at most eight numbers and numpy's
    iteration buffers, each freed by the call that made it; the largest
    is the node product's einsum buffer of 8 N numbers.  Every solve
    makes its own scratch, so concurrent solves share nothing.  n is
    the grid's step count N per leg (see :func:`_grid`) and blocks its
    N / _BLOCK blocks.
    """

    def __init__(self, tau: float):
        grid = _grid(tau)
        self.n = len(grid.steps)
        self.blocks = blocks = self.n // _BLOCK
        self.lengths = (1.0, tau)
        self.signs = np.array([1.0, -1.0])[:, None, None]
        self.consts = self._constants(np.array(self.lengths)[:, None] * grid.steps,
                                      np.stack(_leg_potentials(tau, grid.gauss)),
                                      self.signs[:, 0])
        self.work = np.empty((5, 2, _BLOCK, blocks))
        self.steps = np.empty((2, 2, 2, _BLOCK, blocks))
        self.starts = np.empty((2, 2, 2, blocks))
        self.nodes = np.empty((2, 2, 2, _BLOCK, blocks))
        self.negative = np.empty((2, 2, 2, _BLOCK, blocks), dtype=bool)

    @staticmethod
    def _constants(h: np.ndarray, V: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """(e, d0, d1, f0, f1, sign V2) for q = sign (lambda - V), in the
        block layout; h, the step lengths, is (leg, N), V is (leg, N, 3)
        and sign is (leg, 1).

        With A = E + q F (E, F, H the sl2 basis) the scheme's
        alpha1 = h E + h q2 F, alpha2 = a F and alpha3 = b F, where
        a = (sqrt(15) h/3)(q3 - q1) and b = (10 h/3)(q3 - 2 q2 + q1);
        expanding its commutators gives the coefficients below.
        """
        a = (-sign * math.sqrt(15.0) / 3.0) * h * (V[..., 2] - V[..., 0])
        b = (-sign * 10.0 / 3.0) * h * (V[..., 2] - 2.0 * V[..., 1] + V[..., 0])
        hh, ha = h * h, h * a
        e = h + hh * (ha * a - 20.0 * b) / 3600.0
        d0 = ha * (b * h / 30.0 - 20.0) / 240.0
        d1 = hh * ha / 180.0
        f0 = b / 12.0 + h * (b * b - 30.0 * a * a) / 3600.0
        f1 = h + hh * (20.0 * b + ha * a) / 3600.0
        by_step = np.stack([e, d0, d1, f0, f1, sign * V[..., 1]])
        return by_step.reshape(6, 2, -1, _BLOCK).transpose(0, 1, 3, 2).copy()


def _magnus_legs(legs: _Legs, lambda_acc: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer y'' = q(t) y for the (c, s) columns over both legs of legs.

    Each step is the sixth-order three-Gauss-point Magnus exponential
    exp(Omega) with Omega = [[d, e], [f, -d]], d = d0 + d1 q2 and
    f = f0 + f1 q2 (see :class:`_Legs`); Omega^2 = Delta I with
    Delta = d^2 + e f, so exp(Omega) = C I + S Omega with
    C = cosh(sqrt Delta) and S = sinh(sqrt Delta)/sqrt Delta (cos and
    sin for Delta < 0), and its determinant is exactly 1.  The nodes are
    a parallel prefix product of the steps (Blelloch, "Prefix sums and
    their applications", 1990): _BLOCK - 1 sequential products inside
    all blocks at once, an exclusive doubling scan over the block
    products (Hillis and Steele, "Data parallel algorithms", CACM 1986),
    and one product of each block's prefixes with its start.  Each is
    one einsum over the stacked legs.  An einsum's output must not
    overlap its operands, so the block prefixes go into the nodes'
    buffer, each doubling round into the other of two buffers, and the
    nodes into the steps' buffer.

    Returns (endpoints, census, drift), indexed by leg: the far node
    [[c, s], [c', s']], the count of sign changes of each of its entries
    over all N + 1 nodes, and |W - 1|.  Raises nothing; an endpoint that
    overflowed, which happens only for lambda far outside the bracket,
    is not finite.
    """
    e, d0, d1, f0, f1, shift = legs.consts
    nb = legs.blocks
    delta, d, f, r, C = legs.work
    q2 = np.subtract(legs.signs * lambda_acc, shift, out=delta)
    np.multiply(d1, q2, out=d)
    d += d0
    np.multiply(f1, q2, out=f)
    f += f0
    np.multiply(e, f, out=delta)
    delta += np.multiply(d, d, out=r)
    np.sqrt(np.abs(delta, out=r), out=r)
    # the census's buffer holds the step build's masks
    masks = legs.negative.reshape(4, 2, _BLOCK, nb)
    grow = np.greater(delta, 0.0, out=masks[0])
    shrink = np.logical_not(grow, out=masks[1])
    S = delta  # Delta's buffer, free once its signs are read
    np.cosh(r, out=C, where=grow)
    np.cos(r, out=C, where=shrink)
    np.sinh(r, out=S, where=grow)
    np.sin(r, out=S, where=shrink)
    np.divide(S, r, out=S, where=np.greater(r, 0.0, out=masks[2]))
    np.copyto(S, 1.0, where=np.equal(r, 0.0, out=masks[3]))
    step, start, nodes = legs.steps, legs.starts, legs.nodes
    d *= S
    np.add(C, d, out=step[:, 0, 0])
    np.subtract(C, d, out=step[:, 1, 1])
    np.multiply(S, e, out=step[:, 0, 1])
    np.multiply(S, f, out=step[:, 1, 0])
    # nodes[..., j, b] becomes the product of steps 0..j of block b ...
    nodes[..., 0, :] = step[..., 0, :]
    for j in range(1, _BLOCK):
        np.einsum("lijm,ljkm->likm", step[..., j, :], nodes[..., j - 1, :],
                  out=nodes[..., j, :])
    # ... start[..., b] that of blocks 0..b-1, doubling the span per round
    # and passing it between start and the free work buffers ...
    start[..., 0] = _EYE
    start[..., 1:] = nodes[..., -1, :-1]
    spare = legs.work.reshape(-1)[:start.size].reshape(start.shape)
    span = 1
    while span < nb:
        spare[..., :span] = start[..., :span]
        np.einsum("lijm,ljkm->likm", start[..., span:], start[..., :-span],
                  out=spare[..., span:])
        start, spare = spare, start
        span *= 2
    # ... and every node is the product of the two, into the steps' buffer
    np.einsum("lijbm,ljkm->likbm", nodes, start, out=step)
    nodes, signs = step, nodes
    # sign changes between consecutive nodes: inside each block, in one
    # pass over the flat buffers (its products at j = _BLOCK - 1 pair one
    # entry's last row with the next entry's first), then across each
    # block edge over those slots, and off node 0 = I into the last slot
    np.multiply(nodes.reshape(-1)[:-nb], nodes.reshape(-1)[nb:],
                out=signs.reshape(-1)[:-nb])
    np.multiply(nodes[..., -1, :-1], nodes[..., 0, 1:], out=signs[..., -1, :-1])
    np.multiply(_EYE, nodes[..., 0, 0], out=signs[..., -1, -1])
    negative = np.less(signs, 0.0, out=legs.negative).reshape(8, legs.n)
    census = np.array([np.count_nonzero(entry) for entry in negative]).reshape(2, 2, 2)
    end = nodes[..., -1, -1].copy()
    drift = np.abs(end[:, 0, 0] * end[:, 1, 1] - end[:, 1, 0] * end[:, 0, 1] - 1.0)
    return end, census, drift


def _integrate_with(legs: _Legs, lambda_acc: float) -> LameEndpointData:
    """Endpoint data of both legs at lambda_acc from one _magnus_legs call.

    Raises :class:`BracketError` when a leg overflowed (naming the first
    such leg's length) or when c or s changes sign along a leg.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        end, census, drift = _magnus_legs(legs, lambda_acc)
    for leg, (L, leg_end) in enumerate(zip(legs.lengths, end)):
        if not np.isfinite(leg_end).all():
            raise BracketError(f"the solution overflowed on a leg of length {L}",
                               below=leg == 1)
    # (c, c', s, s') per leg
    (c1, cp1, s1, sp1), (c2, cp2, s2, sp2) = end.transpose(0, 2, 1).reshape(2, 4).tolist()
    if census[:, 0].any():
        f1, f2 = map(tuple, census.transpose(0, 2, 1).reshape(2, 4).tolist())
        raise BracketError(
            "c or s changes sign along a leg (flip census "
            f"{f1} on [0,1], {f2} on [0,i*tau]): lambda={lambda_acc} is "
            "outside the oscillation-free bracket", below=bool(census[0, 0].any()))
    return LameEndpointData(
        c_1=c1, cp_1=cp1, s_1=s1, sp_1=sp1,
        c_it=c2, cp_it=cp2, s_it_imag=s2, sp_it=sp2,
        wronskian_drift=drift.max().item())


def integrate_lame(tau: float, lambda_acc: float) -> LameEndpointData:
    """Endpoint data of the c, s solutions at z = 1 and z = i tau.

    Integrates the real form of the equation separately on each leg.
    Raises :class:`BracketError` when either fundamental solution
    oscillates, which is the signature of an accessory parameter outside
    the admissible bracket, and ValueError for tau outside
    [TAU_MIN, TAU_MAX] or a nan lambda_acc.
    """
    _check_tau(tau)
    if math.isnan(lambda_acc):
        raise ValueError(f"accessory parameter lambda_acc = {lambda_acc!r} is not a number")
    return _integrate_with(_Legs(tau), lambda_acc)


# ---------------------------------------------------------------------------
# circle invariants and the tangency solve


@dataclass(frozen=True)
class CircleInvariants:
    """Center/radius data of the two boundary circles: centers a1 on the
    real axis and i a2 on the imaginary axis, radii r1 and r2."""

    a1: float
    r1: float
    a2: float
    r2: float

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
        raise BracketError("vanishing c or c' endpoint: no circle invariants",
                           below=data.c_1 == 0 or data.cp_1 == 0)
    q1 = data.s_1 / data.c_1
    q2 = data.sp_1 / data.cp_1
    q3 = data.s_it_imag / data.c_it
    q4 = data.sp_it / data.cp_it
    if min(q1, q2, q3, q4) <= 0:
        raise BracketError(
            f"endpoint ratios ({q1:.3g}, {q2:.3g}, {q3:.3g}, {q4:.3g}) "
            "must all be positive", below=min(q1, q2) <= 0)
    a1, r1 = 0.5 * (q1 + q2), 0.5 * abs(q1 - q2)
    a2, r2 = 0.5 * (q3 + q4), 0.5 * abs(q3 - q4)
    return CircleInvariants(a1=a1, r1=r1, a2=a2, r2=r2)


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


def _secant(trial, x0: float, x1: float):
    """Secant iteration on the tangency root from the seed pair (x0, x1).

    trial(lam) returns (root value, endpoint data, invariants); each
    iterate is integrated once.  Returns (lambda, data, invariants) of
    the last iterate once a step is within 1e-13 + 4e-16 |lambda|, or
    None when an iterate has no invariants (BracketError), two root
    values coincide, or the steps run out.
    """
    try:
        f0 = trial(x0)[0]
        f1, data, inv = trial(x1)
        for _ in range(_SECANT_STEPS):
            if f1 == f0:
                return None
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            if x1 == x0:
                return x0, data, inv
            f1, data, inv = trial(x1)
            if abs(x1 - x0) <= 1e-13 + 4e-16 * abs(x1):
                return x1, data, inv
    except BracketError:
        return None
    return None


def _polish(trial, pre, cur):
    """The tangency root between a sign-change pair of lambda nodes.

    pre and cur are (lambda, trial(lambda)) at the two ends, as the node
    search computed them.  Each step is the secant through the last two
    iterates, kept only while it is shorter than half the step before
    the last and lands in the three quarters of the bracket next to the
    best iterate; otherwise the step bisects (Brent, "Algorithms for
    Minimization without Derivatives", 1973, ch. 4).  A
    step shorter than the tolerance is lengthened to it, so the bracket
    also closes from the far side.  Stops once the bracket is within
    1e-13 + 9e-16 |lambda| and returns (lambda, data, invariants) of the
    end with the smaller root value; each iterate is integrated once.
    """
    (xp, rp), (xc, rc) = pre, cur
    for _ in range(_POLISH_STEPS):
        if rp[0] * rc[0] < 0.0:
            (xb, rb), step = (xp, rp), xc - xp
            last = step
        if abs(rb[0]) < abs(rc[0]):
            (xp, rp), (xc, rc), (xb, rb) = (xc, rc), (xb, rb), (xc, rc)
        tol = 0.5 * (1e-13 + 9e-16 * abs(xc))
        half = 0.5 * (xb - xc)
        if rc[0] == 0.0 or abs(half) < tol:
            return xc, rc[1], rc[2]
        if abs(last) > tol and abs(rc[0]) < abs(rp[0]):
            secant = -rc[0] * (xc - xp) / (rc[0] - rp[0])
            if 2.0 * abs(secant) < min(abs(last), 3.0 * abs(half) - tol):
                last, step = step, secant
            else:
                last = step = half
        else:
            last = step = half
        xp, rp = xc, rc
        xc = xc + (step if abs(step) > tol else math.copysign(tol, half))
        rc = trial(xc)
    raise SolverFailure(f"the tangency root polish did not converge in {_POLISH_STEPS} steps")


def _search_nodes(trial):
    """The root or bracket on the _LAMBDAS nodes, by bisection on their index.

    Each node lies below the window of oscillation-free legs, above it
    (see :class:`BracketError`), or inside it with a root value.  Sturm
    comparison makes the zeros on the real leg only grow as lambda falls,
    and those on the imaginary leg as it rises (Pryce, "Numerical
    Solution of Sturm-Liouville Problems", 1993), so the window is one
    run of nodes; inside it the root function fell from positive to
    negative on each of 1,500 log-spaced tau over [TAU_MIN, TAU_MAX].
    So "below the window, or root > 0" holds on a prefix of the nodes,
    and six trials find the first node k where it does not.  Node k is
    the root itself when its root value is exactly 0 and the circles
    touch (tangency residual below 1e-10): far from tangency a1^2 and
    r1 hypot(a1, a2) can also cancel to an exact 0.  A negative value
    there with a positive one at k - 1, which the bisection has tried
    too, is a bracket for _polish.

    Returns (lambda, lo, hi, data, invariants), or None when the nodes
    hold neither.  The bisection integrates no node twice.
    """
    # A node without invariants keeps only BracketError.below: the error
    # would hold its traceback, and through it this solve's _Legs, in a
    # reference cycle until the next garbage collection.
    nodes: dict[int, tuple | bool] = {}

    def past(i: int) -> bool:
        """False below the window and where the root value is positive."""
        try:
            nodes[i] = trial(_LAMBDAS[i])
        except BracketError as err:
            nodes[i] = err.below
            return not err.below
        return not nodes[i][0] > 0.0

    k = bisect.bisect_left(range(len(_LAMBDAS)), True, key=past)
    pre, cur = nodes.get(k - 1), nodes.get(k)
    if isinstance(cur, tuple):
        root, data, inv = cur
        if root == 0.0 and abs(inv.tangency_residual()) < 1e-10:
            return _LAMBDAS[k], _LAMBDAS[k], _LAMBDAS[k], data, inv
        if root < 0.0 and isinstance(pre, tuple):
            lam, data, inv = _polish(trial, (_LAMBDAS[k - 1], pre), (_LAMBDAS[k], cur))
            return lam, _LAMBDAS[k - 1], _LAMBDAS[k], data, inv
    return None


def solve_accessory(tau: float, bracket: tuple[float, float] | None = None) -> AccessorySolve:
    """Find the accessory parameter making the two circles tangent.

    bracket is a seed pair for a secant iteration on lambda (table
    builds pass one extrapolated from the nodes already solved); it need
    not straddle the root.  Without one, or when the secant fails (an
    iterate outside the oscillation-free window, a flat step, or no
    convergence in 12 steps), a bisection over the indices of 64 lambda
    nodes on [-2, 1] finds, in six trials, the first node where the
    root function is no longer positive (see :func:`_search_nodes`).
    That node is the root when the circles touch there; bracket is then
    that node twice.  Otherwise a secant with a bisection guard polishes
    the root inside the node and its lower neighbour, reusing their two
    root values, in at most 11 more trials over the supported range.
    When the nodes hold no sign change it raises
    :class:`SolverFailure`, and that is every tau from about 5.4 up.

    diagnostics holds the tangency residual, the Wronskian drift,
    lambda_trials (integrations made), warm (True when the seed pair
    gave the root; bracket is then the seed pair itself) and grid (the
    Magnus steps per leg, a function of tau alone).
    """
    _check_tau(tau)
    legs = _Legs(tau)
    trials = 0

    def trial(lam: float) -> tuple[float, LameEndpointData, CircleInvariants]:
        nonlocal trials
        trials += 1
        data = _integrate_with(legs, lam)
        inv = circle_invariants(data)
        return _signed_root(inv), data, inv

    found = None if bracket is None else _secant(trial, *bracket)
    warm = found is not None
    if warm:
        lam, data, inv = found
        lo, hi = bracket
    else:
        found = _search_nodes(trial)
        if found is None:
            raise SolverFailure(f"no sign change of the tangency root function at tau={tau}",
                                diagnostics={"tau": tau, "lambda_trials": trials})
        lam, lo, hi, data, inv = found
    diagnostics = {
        "tangency_residual": inv.tangency_residual(),
        "wronskian_drift": data.wronskian_drift,
        "lambda_trials": trials,
        "warm": warm,
        "grid": legs.n,
    }
    return AccessorySolve(
        tau=tau, lambda_acc=lam, bracket=(lo, hi),
        cross_ratio=(inv.a1 / inv.r1) ** 2, modulus=1.0 / tau,
        circles=inv, diagnostics=diagnostics)
