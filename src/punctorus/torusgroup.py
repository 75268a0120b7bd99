"""Discrete groups of once-punctured tori.

Builds the two-generator Moebius groups whose quotient is a punctured
torus: the rectangular pair with tangent isometric circles, the twisted
pair at general twist parameters, commutators, the length/angle
closure relation, and a sampler for random tori whose two lengths are
drawn from circle points, as the Monte Carlo length law draws them.
The identities are built from plain complex entries: a commutator
constructs only the ``MoebiusMap`` it returns, and the tangency
vertices read the isometric circles' centres from the pair's raw
entries and their radii from the pair, building no record.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closedform import _dual_length, _short_length
from .hypgeom import MoebiusMap

__all__ = [
    "GeneratorPair",
    "TorusSample",
    "AngleRelation",
    "commutator",
    "rectangular_generators",
    "tangency_vertices",
    "nonrectangular_pair",
    "angle_relation",
    "sample_torus",
]

_TANGENT_TOL = 1e-9
# The rectangular pair's determinant qa**2 - 1/r**2 (and qb**2 - r**2)
# loses about 1/r**2 (r**2) ulps of 1 and first rounds to 0 near
# r = 2**-25.45 (2**25.46).  Its commutator's last product has entries
# near 2r (2/r), so that determinant, a difference of two products near
# 4 r**2, rounds to 0 sooner: for about 5% of log-uniform radii in
# [2**24, 2**25], 1 to 4 in 50 001 in [2**23.8, 2**24] and none in
# 60 000 in each of [2**22, 2**23] and [2**23, 2**23.5] (mirrors below
# 1 alike).
_RECT_MIN, _RECT_MAX = 2.0**-23, 2.0**23
# The sheared pair's determinants, and its commutator's, first round to
# 0 once P = max(r, 1/r) (1 + lam**2) passes about 2**20 (2**20.06 the
# lowest of 10**5 log-uniform points, r in 2**[8, 14], lam in 2**[2, 6]),
# and at (1, 1e8) the pair's round to 4.  This box keeps P below
# 2**18.01: none of 4 * 10**5 points in it failed, half in its corner.
_SHEAR_R_MAX, _SHEAR_LAM_MAX = 2.0**10, 16.0
# cosh(ell/2)**2 overflows for lengths ell above about 710.
_LENGTH_MAX = 700.0


@dataclass(frozen=True)
class GeneratorPair:
    """Two Moebius generators of a punctured-torus group.

    r and s are the isometric-circle radii of A and B.
    """

    A: MoebiusMap
    B: MoebiusMap
    r: float
    s: float

    def __post_init__(self) -> None:
        if not (self.r > 0 and self.s > 0):
            raise ValueError("radii must be positive")


@dataclass(frozen=True)
class TorusSample:
    """One random punctured torus: two geodesic lengths and their angle."""

    x_sigma: float
    y_sigma: float
    theta: float

    def __post_init__(self) -> None:
        if not (self.x_sigma > 0 and self.y_sigma > 0):
            raise ValueError("lengths must be positive")
        if not 0.0 < self.theta <= 0.5 * math.pi + 1e-12:
            raise ValueError("angle must lie in (0, pi/2]")


class AngleRelation(NamedTuple):
    theta: float
    quad_cr: float


def commutator(f: MoebiusMap, g: MoebiusMap) -> MoebiusMap:
    """f g f^-1 g^-1 of the determinant-one representatives.

    Each generator is normalized once, inverted by its adjugate, and
    multiplied out as plain complex entries; the one ``MoebiusMap``
    built is the result.  The raw product, not a resigned one: flipping
    the sign of either generator leaves it unchanged, so its trace is an
    honest invariant of the group element (and equals -2 in the
    parabolic cases).  For the rectangular pair of radius r the computed
    trace is within 64 max(r^2, 1/r^2) eps of -2 over the whole accepted
    range of r (the worst seen, 45.8, near r = 1.02; about 12 near the
    ends).  For the sheared pair at (r, lam) it is within
    128 max(r^2, 1/r^2) (1 + lam^2)^2 eps of -2 over the whole accepted
    box (the worst seen, 90.4, near r = 1.03, lam = 7.95).
    """
    # each generator rescaled to determinant one (up to overall sign) ...
    s = cmath.sqrt(f.det())
    fa, fb, fc, fd = f.a / s, f.b / s, f.c / s, f.d / s
    s = cmath.sqrt(g.det())
    ga, gb, gc, gd = g.a / s, g.b / s, g.c / s, g.d / s
    # ... then f g, and f^-1 g^-1 from the adjugates (fd, -fb, -fc, fa)
    # and (gd, -gb, -gc, ga), each entry a row of the left factor times
    # a column of the right one
    pa, pb = fa * ga + fb * gc, fa * gb + fb * gd
    pc, pd = fc * ga + fd * gc, fc * gb + fd * gd
    qa, qb = fd * gd + -fb * -gc, fd * -gb + -fb * ga
    qc, qd = -fc * gd + fa * -gc, -fc * -gb + fa * ga
    return MoebiusMap(pa * qa + pb * qc, pa * qb + pb * qd,
                      pc * qa + pd * qc, pc * qb + pd * qd)


def rectangular_generators(r: float) -> GeneratorPair:
    """The symmetric generator pair with radii (r, 1/r).

    A fixes +-1 and B fixes +-i; their isometric circles sit on the real
    and imaginary axes and are mutually tangent exactly because the radii
    are reciprocal, which is also what makes the commutator parabolic.
    Raises ValueError for r outside [2**-23, 2**23], beyond which the
    rounded entries of the pair or of its commutator can be singular.
    """
    if not _RECT_MIN <= r <= _RECT_MAX:
        raise ValueError(f"radius r = {r!r} is outside [2**-23, 2**23], the range "
                         "where the pair and its commutator are nonsingular in doubles")
    s = 1.0 / r
    qa = math.sqrt(1.0 / r**2 + 1.0)
    qb = math.sqrt(1.0 / s**2 + 1.0)
    A = MoebiusMap(qa, 1.0 / r, 1.0 / r, qa)
    B = MoebiusMap(qb, 1j / s, -1j / s, qb)
    return GeneratorPair(A=A, B=B, r=r, s=s)


def _tangent_point(c1: complex, r1: float, c2: complex, r2: float) -> complex:
    """Where two tangent circles touch, measured from the smaller one's
    centre, so the rounding of the step scales with the smaller radius."""
    if r1 > r2:
        c1, r1, c2, r2 = c2, r2, c1, r1
    return c1 + r1 * (c2 - c1) / (r1 + r2)


def tangency_vertices(pair: GeneratorPair) -> tuple[complex, complex, complex, complex]:
    """The four mutual tangency points of the isometric circles.

    Order: C(A) with C(B), C(B) with C(A^-1), C(A^-1) with C(B^-1),
    C(B^-1) with C(A).  Raises for non-reciprocal radii, where the
    circles fail to touch.
    """
    if abs(pair.r * pair.s - 1.0) >= _TANGENT_TOL:
        raise ValueError("circles are not tangent: radii are not reciprocal")
    A, B, r, s = pair.A, pair.B, pair.r, pair.s
    if A.c == 0 or B.c == 0:
        raise ValueError("map fixes infinity and has no isometric circle")
    ca, ca_inv = complex(-A.d / A.c), complex(A.a / A.c)
    cb, cb_inv = complex(-B.d / B.c), complex(B.a / B.c)
    return (
        _tangent_point(ca, r, cb, s),
        _tangent_point(cb, s, ca_inv, r),
        _tangent_point(ca_inv, r, cb_inv, s),
        _tangent_point(cb_inv, s, ca, r),
    )


def nonrectangular_pair(r: float, lam: float) -> tuple[MoebiusMap, MoebiusMap]:
    """Sheared side-pairing maps at twist lam, radii (r, 1/r).

    At lam = 0 they reduce entrywise to the rectangular generators (in
    the opposite order: u to B, v to A).  Their fixed points stay
    antipodal on the unit circle for every twist.  Raises ValueError for
    r outside [2**-10, 2**10] or lam outside [0, 16], beyond which the
    rounded entries of the pair or of its commutator can be singular.
    """
    where = "the range where the pair and its commutator are nonsingular in doubles"
    if not 1.0 / _SHEAR_R_MAX <= r <= _SHEAR_R_MAX:
        raise ValueError(f"radius r = {r!r} is outside [2**-10, 2**10], {where}")
    if not 0.0 <= lam <= _SHEAR_LAM_MAX:
        raise ValueError(f"twist lam = {lam!r} is outside [0, 16], {where}")
    w = math.sqrt(1.0 + lam * lam)
    qa = math.sqrt(r * r + 1.0)
    qb = math.sqrt(1.0 / r**2 + 1.0)
    u = MoebiusMap(qa * w, lam + 1j * r * w, lam - 1j * r * w, qa * w)
    v = MoebiusMap(qb * w, w / r + 1j * lam, w / r - 1j * lam, qb * w)
    return u, v


def angle_relation(ell1: float, ell2: float) -> AngleRelation:
    """Angle and cross ratio of a torus with given dual geodesic lengths.

    The two geodesics meet once, at the angle theta in (0, pi/2] with
    sin(theta) sinh(ell1/2) sinh(ell2/2) = 1; a product below 1 cannot
    close up into a torus and raises.
    """
    for name, ell in (("ell1", ell1), ("ell2", ell2)):
        if math.isnan(ell):
            raise ValueError(f"length {name} = {ell!r} is not a number")
        if ell <= 0:
            raise ValueError(f"length {name} = {ell!r} is not positive")
        if ell > _LENGTH_MAX:
            raise ValueError(f"length {name} = {ell!r} exceeds 700, "
                             "where cosh(ell/2)**2 overflows")
    prod = math.sinh(0.5 * ell1) * math.sinh(0.5 * ell2)
    if prod < 1.0:
        raise ValueError("no valid angle: sinh(l1/2) sinh(l2/2) < 1")
    theta = math.asin(min(1.0 / prod, 1.0))
    quad_cr = 1.0 + math.cosh(0.5 * ell1) ** 2 / math.cosh(0.5 * ell2) ** 2
    return AngleRelation(theta=theta, quad_cr=quad_cr)


def _circle_length(t: list[float], coin: float) -> float:
    """The short length of the canonical cross ratio Q of three circle
    points with half-angle tangents t if coin < 1/2, else the dual one;
    nan at a zero gap, where Q is infinite, which fails the closure test.

    Q = 1 + max(g1, g2)/min(g1, g2) over the sorted tangents' gaps, as
    ``mc._canonical_cross_ratio`` takes it, in Python floats, which
    round as the ufuncs do.
    """
    t1, t2, t3 = sorted(t)
    lo, hi = sorted((t2 - t1, t3 - t2))
    if lo == 0.0:
        return math.nan
    q = 1.0 + hi / lo
    return float(_short_length(q) if coin < 0.5 else _dual_length(q))


def sample_torus(rng_seed) -> TorusSample:
    """Draw one random punctured torus.

    Both lengths come from the geodesic length law; pairs that violate
    the closure inequality sinh(x/2) sinh(y/2) >= 1 are redrawn
    together, as is a pair with a zero gap, so the accepted pair is
    i.i.d.-from-the-law conditioned on describing an actual torus.  Each
    attempt reads ``rng.random((2, 4))``, a row per length: three
    uniforms U give circle points with half-angle tangents tan(U pi), as
    ``mc._half_angle_tangents`` takes them, and the fourth is the coin
    of :func:`_circle_length`, so each length has the bits of the Monte
    Carlo construction on the same row.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    while True:
        u = rng.random((2, 4))
        t = u[:, :3] * math.pi
        x, y = map(_circle_length, np.tan(t, out=t).tolist(), u[:, 3].tolist())
        prod = math.sinh(0.5 * x) * math.sinh(0.5 * y)
        if prod >= 1.0:
            theta = math.asin(min(1.0 / prod, 1.0))
            return TorusSample(x_sigma=x, y_sigma=y, theta=theta)
