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


# Steps the root iteration may take, from a seed pair or from the node
# search's bracket, before the solve gives up on it; over 1,509 cold and
# 300 seeded solves on [0.005, 50] it took at most 10.
_ROOT_STEPS = 100
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
    real leg before the imaginary one, unless both overflowed: V is
    negative on the real leg and positive on the imaginary one, so the
    leg that grows is the imaginary one exactly when lambda < 0.
    """

    def __init__(self, message: str, below: bool):
        super().__init__(message)
        self.below = below


class SolverFailure(RuntimeError):
    """The tangency root could not be bracketed.

    Carries a ``diagnostics`` dict: when a solve raises it, tau and
    lambda_trials, the integrations the solve made, as in a solve's own
    diagnostics.
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
    """One tau's two legs, ready for lambda trials, their scratch and the
    count of trials made on them.

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
    makes its own scratch, so concurrent solves share nothing, and binds
    here, once, each view of it that a trial writes through and the view
    of the nodes' c and s whose signs _flips reads; no view refers back
    to the instance.  n is the grid's step count N per leg
    (see :func:`_grid`) and blocks its N / _BLOCK blocks.
    """

    def __init__(self, tau: float):
        grid = _grid(tau)
        self.tau, self.trials, self.n = tau, 0, len(grid.steps)
        self.blocks = nb = self.n // _BLOCK
        self.signs = np.array([1.0, -1.0])[:, None, None]
        self.consts = tuple(self._constants(np.array([1.0, tau])[:, None] * grid.steps,
                                            np.stack(_leg_potentials(tau, grid.gauss)),
                                            self.signs[:, 0]))
        work = np.empty((5, 2, _BLOCK, nb))
        self.work = tuple(work)
        self.steps = step = np.empty((2, 2, 2, _BLOCK, nb))
        nodes, start = np.empty((2, 2, 2, _BLOCK, nb)), np.empty((2, 2, 2, nb))
        masks = np.empty((3, 2, _BLOCK, nb), dtype=bool)
        # the step build's masks (Delta > 0, Delta <= 0, r = 0), the step
        # entries [0, 0], [1, 1], [0, 1] and [1, 0], and the operands of
        # the scan's stages (see _magnus_legs)
        self.masks = tuple(masks)
        self.entries = step[:, 0, 0], step[:, 1, 1], step[:, 0, 1], step[:, 1, 0]
        self.first = nodes[..., 0, :], step[..., 0, :]
        self.prefixes = [(step[..., j, :], nodes[..., j - 1, :], nodes[..., j, :])
                         for j in range(1, _BLOCK)]
        start[..., 0] = _EYE  # every round's head carries block 0's start along
        self.block_ends = start[..., 1:], nodes[..., -1, :-1]
        spare = work.reshape(-1)[:start.size].reshape(start.shape)
        self.rounds, span = [], 1
        while span < nb:
            self.rounds.append((spare[..., :span], start[..., :span], start[..., span:],
                                start[..., :-span], spare[..., span:]))
            start, spare, span = spare, start, 2 * span
        self.product, self.end = (nodes, start), step[..., -1, -1]
        # _flips' view of c and s, the nodes' row 0, and its verdict's
        # scratch in two of the masks, both laid out (leg, column, j, b)
        self.flip_signs = step[:, 0], masks[:2]

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


def _magnus_legs(legs: _Legs, lambda_acc: float) -> list:
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
    nodes into the steps' buffer, legs.steps.

    Returns the far node of each leg, [[c, s], [c', s']], as nested
    lists of floats.  Raises nothing; an endpoint that overflowed, which
    happens only for lambda far outside the bracket, is not finite.
    """
    e, d0, d1, f0, f1, shift = legs.consts
    delta, d, f, r, C = legs.work
    grow, shrink, zero = legs.masks
    q2 = np.subtract(legs.signs * lambda_acc, shift, out=delta)
    np.multiply(d1, q2, out=d)
    d += d0
    np.multiply(f1, q2, out=f)
    f += f0
    np.multiply(e, f, out=delta)
    delta += np.multiply(d, d, out=r)
    np.sqrt(np.abs(delta, out=r), out=r)
    np.greater(delta, 0.0, out=grow)
    np.logical_not(grow, out=shrink)
    S = delta  # Delta's buffer, free once its signs are read
    np.cosh(r, out=C, where=grow)
    np.cos(r, out=C, where=shrink)
    np.sinh(r, out=S, where=grow)
    np.sin(r, out=S, where=shrink)
    S /= r  # 0/0 where r = 0, which the next line overwrites
    np.copyto(S, 1.0, where=np.equal(r, 0.0, out=zero))
    s00, s11, s01, s10 = legs.entries
    d *= S
    np.add(C, d, out=s00)
    np.subtract(C, d, out=s11)
    np.multiply(S, e, out=s01)
    np.multiply(S, f, out=s10)
    # each block's prefixes ...
    np.copyto(*legs.first)
    for step, prefix, out in legs.prefixes:
        np.einsum("lijm,ljkm->likm", step, prefix, out=out)
    # ... the product of the blocks before each one, doubling the span
    # per round ...
    np.copyto(*legs.block_ends)
    for head, last_head, later, earlier, out in legs.rounds:
        np.copyto(head, last_head)
        np.einsum("lijm,ljkm->likm", later, earlier, out=out)
    # ... and every node is the product of the two
    np.einsum("lijbm,ljkm->likbm", *legs.product, out=legs.steps)
    return legs.end.tolist()


def _flips(legs: _Legs) -> list[bool]:
    """Whether c or s is negative at a node of the last _magnus_legs call
    on legs, for the real and the imaginary leg.  c(0) = 1, s(0) = 0 and
    s'(0) = 1, so a sign change along a leg means a negative value at a
    node."""
    signs, negative = legs.flip_signs
    return np.less(signs, 0.0, out=negative).any(axis=(1, 2, 3)).tolist()


def _ends(legs: _Legs, lambda_acc: float) -> list | bool:
    """One lambda trial on legs, counted in legs.trials: the far nodes as
    :func:`_magnus_legs` returns them or, when a leg overflowed or c or s
    changes sign along one, :class:`BracketError`'s below.  The caller
    ignores overflow and invalid operations."""
    legs.trials += 1
    end = _magnus_legs(legs, lambda_acc)
    real, imag = (all(map(math.isfinite, leg[0] + leg[1])) for leg in end)
    if not (real and imag):
        return not imag and (real or bool(lambda_acc < 0.0))
    flips = _flips(legs)
    return flips[0] if any(flips) else end


def _drift(end: list) -> float:
    """|W - 1| of the far nodes, the larger of the two legs'."""
    end = np.array(end)
    return np.abs(end[:, 0, 0] * end[:, 1, 1] - end[:, 1, 0] * end[:, 0, 1] - 1.0).max().item()


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
    legs = _Legs(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        end = _ends(legs, lambda_acc)
        if isinstance(end, bool) and np.isfinite(legs.end).all():
            # the flip census: sign changes of each entry over the N + 1 nodes
            nodes = legs.steps.swapaxes(-1, -2).reshape(2, 2, 2, -1)
            census = (np.count_nonzero(nodes[..., :-1] * nodes[..., 1:] < 0.0, axis=-1)
                      + (_EYE * nodes[..., 0] < 0.0))
            f1, f2 = map(tuple, census.transpose(0, 2, 1).reshape(2, 4).tolist())
            raise BracketError(
                "c or s changes sign along a leg (flip census "
                f"{f1} on [0,1], {f2} on [0,i*tau]): lambda={lambda_acc} is "
                "outside the oscillation-free bracket", below=end)
    if isinstance(end, bool):
        raise BracketError(f"the solution overflowed on a leg of length {(1.0, tau)[end]}",
                           below=end)
    ((c1, s1), (cp1, sp1)), ((c2, s2), (cp2, sp2)) = end
    return LameEndpointData(
        c_1=c1, cp_1=cp1, s_1=s1, sp_1=sp1,
        c_it=c2, cp_it=cp2, s_it_imag=s2, sp_it=sp2,
        wronskian_drift=_drift(end))


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


def _invariants(end) -> tuple[float, ...] | bool:
    """(a1, r1, a2, r2) of the far nodes, as _magnus_legs returns them, or
    BracketError's below when the circles do not exist."""
    ((c1, s1), (cp1, sp1)), ((c2, s2), (cp2, sp2)) = end
    if c1 == 0 or cp1 == 0 or c2 == 0 or cp2 == 0:
        return c1 == 0 or cp1 == 0
    q1, q2, q3, q4 = s1 / c1, sp1 / cp1, s2 / c2, sp2 / cp2
    if min(q1, q2, q3, q4) <= 0:
        return min(q1, q2) <= 0
    return 0.5 * (q1 + q2), 0.5 * abs(q1 - q2), 0.5 * (q3 + q4), 0.5 * abs(q3 - q4)


def circle_invariants(data: LameEndpointData) -> CircleInvariants:
    """Half-sum/half-difference invariants of the endpoint ratios.

    The second pair carries the sign fix relative to the symmetric
    first pair (difference, not sum, for the radius); the ratios must
    all be positive for the circles to exist, anything else meaning the
    accessory parameter left the bracket.
    """
    inv = _invariants((((data.c_1, data.s_1), (data.cp_1, data.sp_1)),
                       ((data.c_it, data.s_it_imag), (data.cp_it, data.sp_it))))
    if not isinstance(inv, tuple):
        raise BracketError("vanishing c or c' endpoint or an endpoint ratio that is not "
                           "positive: no circle invariants", below=bool(inv))
    return CircleInvariants(*inv)


def _trial(legs: _Legs, lambda_acc: float) -> tuple | bool:
    """One lambda trial of a solve: (root value, far nodes, (a1, r1, a2,
    r2)), or below when the circles do not exist (see :func:`_ends`).

    The root value a1^2 - r1 sqrt(a1^2 + a2^2) vanishes together with
    the tangency residual but crosses zero transversally along the
    lambda sweep, which makes it the better bisection target.
    """
    end = _ends(legs, lambda_acc)
    inv = end if isinstance(end, bool) else _invariants(end)
    if isinstance(inv, bool):
        return inv
    a1, r1, a2, _ = inv
    return a1 * a1 - r1 * math.hypot(a1, a2), end, inv


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


def _root(legs: _Legs, pre, cur):
    """The tangency root from two trials, each a (lambda, trial) pair.

    Each step is the secant through the last two iterates.  Once two
    root values differ in sign the iteration keeps the nearest bracket
    (the last iterate and the latest one of the other sign), and
    bisects it when a secant step would leave it or, for a second step
    in a row, would not halve the step before it.  Stops on an exact
    zero, pre's included, or once a step or the bracket is within
    1e-13 + 4e-16 |lambda|, and returns (lambda, trial) of that iterate;
    each iterate is one :func:`_trial`.  Returns None when an iterate
    has no circles, when two root values coincide before any bracket
    exists, or when the steps run out.
    """
    if pre[1][0] == 0.0:
        return pre
    (xa, ta), (xb, tb) = pre, cur
    far, slow = None, 0
    for step in range(_ROOT_STEPS + 1):
        if isinstance(tb, bool):
            return None
        fa, fb = ta[0], tb[0]
        if (fa < 0.0) != (fb < 0.0):
            far = xa
        tol = 1e-13 + 4e-16 * abs(xb)
        if fb == 0.0 or abs(xb - xa) <= tol or (far is not None and abs(far - xb) <= tol):
            return xb, tb
        if step == _ROOT_STEPS or (far is None and fa == fb):
            return None
        x = xb - fb * (xb - xa) / (fb - fa) if fb != fa else math.nan
        slow = slow + 1 if not abs(x - xb) <= 0.5 * abs(xb - xa) else 0
        if far is not None and (slow > 1 or not min(xb, far) < x < max(xb, far)):
            x = 0.5 * (xb + far)
        xa, ta, xb, tb = xb, tb, x, _trial(legs, x)


def _search_nodes(legs: _Legs):
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
    the root when its root value is exactly 0 (far from tangency a1^2
    and r1 hypot(a1, a2) can also cancel to an exact 0, which
    :func:`solve_accessory` rejects).  A negative value there with a
    positive one at k - 1, which the bisection has tried too, is a
    bracket for :func:`_root`.

    Returns (lo, hi, found): the bracket and _root's result from it, or
    node k twice and (lambda, trial) at it, or three Nones when the
    nodes hold neither.  The bisection integrates no node twice.
    """
    nodes: dict[int, tuple | bool] = {}

    def past(i: int) -> bool:
        """False below the window and where the root value is positive."""
        got = nodes[i] = _trial(legs, _LAMBDAS[i])
        return not got if isinstance(got, bool) else not got[0] > 0.0

    k = bisect.bisect_left(range(len(_LAMBDAS)), True, key=past)
    pre, cur = nodes.get(k - 1), nodes.get(k)
    if isinstance(cur, tuple) and cur[0] == 0.0:
        return _LAMBDAS[k], _LAMBDAS[k], (_LAMBDAS[k], cur)
    if isinstance(cur, tuple) and cur[0] < 0.0 and isinstance(pre, tuple):
        lo, hi = _LAMBDAS[k - 1], _LAMBDAS[k]
        return lo, hi, _root(legs, (lo, pre), (hi, cur))
    return None, None, None


def solve_accessory(tau: float, bracket: tuple[float, float] | None = None) -> AccessorySolve:
    """Find the accessory parameter making the two circles tangent.

    bracket is a seed pair for the root iteration (see :func:`_root`;
    table builds pass one extrapolated from the nodes already solved);
    it need not straddle the root, and its second seed is integrated
    only when the first has circles.  Without one, or when the seeds
    give no root, a bisection over the indices of 64 lambda nodes on
    [-2, 1] finds, in six trials, the first node where the root
    function is no longer positive (see :func:`_search_nodes`): the
    root when its root value is exactly 0 (bracket is then that node
    twice), else the top of a bracket from which the same iteration
    takes at most 10 more trials over the supported range.  Either way
    a root counts only where |tangency residual| < 1e-10: a seeded one
    that fails this falls back to the node search, and when that gives
    none it raises :class:`SolverFailure`, carrying tau and
    lambda_trials, as every tau from about 5.4 up does.  A bracket that
    is not two values raises ValueError.

    diagnostics holds the tangency residual, the Wronskian drift,
    lambda_trials (integrations made), warm (True when the seed pair
    gave the root; bracket is then the seed pair itself) and grid (the
    Magnus steps per leg, a function of tau alone).
    """
    _check_tau(tau)
    if bracket is not None and np.shape(bracket) != (2,):
        raise ValueError(f"bracket must be two seed values, got {bracket!r}")
    legs = _Legs(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        for warm in (True, False)[bracket is None:]:
            if warm:
                (lo, hi), first = bracket, _trial(legs, bracket[0])
                found = (None if isinstance(first, bool)
                         else _root(legs, (lo, first), (hi, _trial(legs, hi))))
            else:
                lo, hi, found = _search_nodes(legs)
            if found is not None:
                circles = CircleInvariants(*found[1][2])
                if abs(circles.tangency_residual()) < 1e-10:
                    break
        else:
            raise SolverFailure(f"no sign change of the tangency root function at tau={tau}",
                                {"tau": tau, "lambda_trials": legs.trials})
    lam, (_, end, _) = found
    diagnostics = {
        "tangency_residual": circles.tangency_residual(),
        "wronskian_drift": _drift(end),
        "lambda_trials": legs.trials,
        "warm": warm,
        "grid": legs.n,
    }
    return AccessorySolve(
        tau=tau, lambda_acc=lam, bracket=(lo, hi),
        cross_ratio=(circles.a1 / circles.r1) ** 2, modulus=1.0 / tau,
        circles=circles, diagnostics=diagnostics)
