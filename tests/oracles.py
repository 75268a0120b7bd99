"""Reference routes the package no longer carries, kept as test oracles."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from punctorus import closedform, lame
from punctorus.hypgeom import MoebiusMap
from punctorus.torusgroup import _TANGENT_TOL, GeneratorPair, _tangent_point

# the three degenerate cross ratios, infinity with both signs
_DEGENERATE_VALUES = (0.0, 1.0, math.inf, -math.inf)
_INFINITY = complex(math.inf)


def sample_length_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values from the full-line length density X, as arrays.

    A fair coin picks the branch: u < 1/2 gives the short length at the
    quantile of 1 - 2u, u >= 1/2 the dual one at that of 2u - 1.  All n
    draws read ``rng.uniform(size=n)`` and go through both branches as
    arrays.  An inverse-CDF route, independent of the circle draws that
    ``torusgroup.sample_torus`` and the Monte Carlo samplers read.
    """
    u = rng.uniform(size=n)
    short = u < 0.5
    q = closedform._INVERSE(np.where(short, 1.0 - 2.0 * u, 2.0 * u - 1.0))
    return np.where(short, closedform._short_length(q), closedform._dual_length(q))


def circle_cr_by_sines(th: np.ndarray) -> np.ndarray:
    """Cross ratio of four unit-circle points via the half-angle sines.

    For z_j = exp(i th_j) each difference z_a - z_b carries a common
    phase times 2 sin((th_a - th_b)/2); the phases cancel in the cross
    ratio, leaving a manifestly real expression.  The four half-angle
    sines overwrite th's rows in place (th is consumed).  It shares no
    arithmetic with the samplers' half-angle tangent route.
    """
    a, b, c, d = th.T
    ac = a - c
    a -= b
    b -= d
    c -= d
    d[...] = ac
    th *= 0.5
    np.sin(th, out=th)
    d *= b  # sin((a - c)/2) sin((b - d)/2)
    a *= c  # sin((a - b)/2) sin((c - d)/2)
    return d / a


def circle_cr_condition(th: np.ndarray) -> np.ndarray:
    """kappa = 1 + pi sum_j |d log CR / d th_j| of each row (pi, b, c, d).

    log CR = log sin((a-c)/2) + log sin((b-d)/2) - log sin((a-b)/2)
    - log sin((c-d)/2), so each partial is a sum of half cotangents.  The
    sum runs over the three free angles b, c and d only: the first point
    is the samplers' pinned one, whose half-angle tangent is exactly
    infinite, so its angle carries no rounding.  A free angle in
    [0, 2 pi) carries a rounding error of at most about pi eps, so eps
    kappa scales the relative error that rounding the three angles alone
    puts on the cross ratio.
    """
    a, b, c, d = th.T
    ac, bd, ab, cd = (0.5 / np.tan(0.5 * x) for x in (a - c, b - d, a - b, c - d))
    grad = np.abs(bd + ab) + np.abs(ac + cd) + np.abs(bd - cd)
    return 1.0 + math.pi * grad


def circle_cr_mpmath(th: np.ndarray, dps: int = 50) -> np.ndarray:
    """The sine-form cross ratio of each row of four float angles, at dps digits."""
    out = []
    with mpmath.workdps(dps):
        for row in th.tolist():
            a, b, c, d = (mpmath.mpf(x) / 2 for x in row)
            out.append(float(mpmath.sin(a - c) * mpmath.sin(b - d)
                             / (mpmath.sin(a - b) * mpmath.sin(c - d))))
    return np.array(out)


def canonical_gap_ratio_mpmath(t: np.ndarray, dps: int = 40) -> np.ndarray:
    """1 + max(g1, g2)/min(g1, g2) of each row of three float tangents,
    at dps digits, where g1 and g2 are the gaps of the sorted row: the
    exact canonical cross ratio of the three points and a fourth at
    infinity."""
    out = []
    with mpmath.workdps(dps):
        for row in t.tolist():
            t1, t2, t3 = sorted(mpmath.mpf(x) for x in row)
            g1, g2 = t2 - t1, t3 - t2
            out.append(float(1 + max(g1, g2) / min(g1, g2)))
    return np.array(out)


def orbit_images(lam):
    """The six substitution images of lam, a scalar or a numpy array, in
    the order of ``s4_orbit``; their largest is the canonical cross ratio.
    The package reads that one from the sorted gaps of its tangent draws
    (``mc._canonical_cross_ratio``), and the tests take the stacked
    maximum of these images as the independent route."""
    return (lam, 1.0 - lam, lam / (lam - 1.0), 1.0 / lam, 1.0 / (1.0 - lam), (lam - 1.0) / lam)


def s4_orbit(lam: float) -> tuple[float, ...]:
    """The six orbit values of ``lam`` under the substitution group.

    Listed in the fixed order (L, 1-L, L/(L-1), 1/L, 1/(1-L), (L-1)/L);
    repeated values are kept, so the result is a multiset of size six.
    For every real ``lam`` outside {0, 1} its maximum is the canonical
    representative, the one element >= 2.  Raises ValueError for the
    degenerate values 0, 1 and +-infinity.
    """
    if lam in _DEGENERATE_VALUES:
        raise ValueError(f"degenerate orbit: lam = {lam!r}; 0, 1 and infinity "
                         "have no six-element orbit")
    return tuple(float(x) for x in orbit_images(float(lam)))


def canonical_representative(lam: float) -> float:
    """The unique orbit element >= 2 of a real nondegenerate cross ratio.

    For every real ``lam`` outside {0, 1} the maximum of the six orbit
    values is at least 2 and all other elements are below 2.  Boundary
    orbits through {-1, 1/2, 2} return exactly 2.
    """
    return max(s4_orbit(lam))


def apply(m: MoebiusMap, z: complex) -> complex:
    """The image m(z) of a point of the extended plane."""
    z = complex(z)
    if cmath.isinf(z):
        return _INFINITY if m.c == 0 else complex(m.a / m.c)
    den = m.c * z + m.d
    if den == 0:
        return _INFINITY
    return complex((m.a * z + m.b) / den)


def compose(f: MoebiusMap, g: MoebiusMap) -> MoebiusMap:
    """The map z -> f(g(z)), as a matrix product."""
    return MoebiusMap(f.a * g.a + f.b * g.c, f.a * g.b + f.b * g.d,
                      f.c * g.a + f.d * g.c, f.c * g.b + f.d * g.d)


def normalized(m: MoebiusMap) -> MoebiusMap:
    """m rescaled to determinant one (up to overall sign)."""
    s = cmath.sqrt(m.det())
    return MoebiusMap(m.a / s, m.b / s, m.c / s, m.d / s)


def inverse(m: MoebiusMap) -> MoebiusMap:
    """The inverse of m: the adjugate of its determinant-one representative."""
    n = normalized(m)
    return MoebiusMap(n.d, -n.b, -n.c, n.a)


@dataclass(frozen=True)
class IsometricCircle:
    """The circle on which a Moebius map acts as a Euclidean isometry.

    For a determinant-one map this is |cz + d| = 1; all circles produced
    here are orthogonal to the unit circle.
    """

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError("isometric circle needs a positive radius")


def circles(pair: GeneratorPair) -> tuple[IsometricCircle, IsometricCircle,
                                          IsometricCircle, IsometricCircle]:
    """Isometric circles of (A, A^-1, B, B^-1), in that order.

    The centres are -d/c and a/c (M^-1 is the adjugate (d, -b, -c, a)
    of M), which no rescaling of M moves, and the radii are the pair's
    own r and s; so no generator is normalized.  ``tangency_vertices``
    reads the same centres and radii without building these records.
    """
    A, B = pair.A, pair.B
    if A.c == 0 or B.c == 0:
        raise ValueError("map fixes infinity and has no isometric circle")
    return (IsometricCircle(complex(-A.d / A.c), pair.r),
            IsometricCircle(complex(A.a / A.c), pair.r),
            IsometricCircle(complex(-B.d / B.c), pair.s),
            IsometricCircle(complex(B.a / B.c), pair.s))


def isometric_circle(m: MoebiusMap) -> IsometricCircle:
    """Isometric circle |cz + d| = 1 of a determinant-one representative.

    Normalizes m, where ``circles`` normalizes nothing.  Maps fixing
    infinity (c = 0) have none and raise.
    """
    n = normalized(m)
    if n.c == 0:
        raise ValueError("map fixes infinity and has no isometric circle")
    return IsometricCircle(complex(-n.d / n.c), 1.0 / abs(n.c))


def commutator_by_records(f: MoebiusMap, g: MoebiusMap) -> MoebiusMap:
    """f g f^-1 g^-1 built from seven maps: the two normalized
    generators, their adjugates and the three products."""
    f, g = normalized(f), normalized(g)
    f_inv, g_inv = (MoebiusMap(n.d, -n.b, -n.c, n.a) for n in (f, g))
    return compose(compose(f, g), compose(f_inv, g_inv))


def tangency_vertices_by_circles(pair: GeneratorPair) -> tuple[complex, ...]:
    """The four tangency vertices read from the ``circles`` records, in
    ``tangency_vertices``' order, with its checks in its order."""
    if abs(pair.r * pair.s - 1.0) >= _TANGENT_TOL:
        raise ValueError("circles are not tangent: radii are not reciprocal")
    ca, ca_inv, cb, cb_inv = circles(pair)
    return (
        _tangent_point(ca.center, ca.radius, cb.center, cb.radius),
        _tangent_point(cb.center, cb.radius, ca_inv.center, ca_inv.radius),
        _tangent_point(ca_inv.center, ca_inv.radius, cb_inv.center, cb_inv.radius),
        _tangent_point(cb_inv.center, cb_inv.radius, ca.center, ca.radius),
    )


def _ufunc_product(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                   t0: np.ndarray, t1: np.ndarray) -> None:
    """out = a b for stacks of 2x2 matrices laid out (leg, row, col, ...).

    t0 and t1 are scratch shaped like out.  Both are written before out,
    so out may be a or b as long as neither scratch overlaps them.
    """
    np.multiply(a[:, :, 0, None], b[:, None, 0], out=t0)
    np.multiply(a[:, :, 1, None], b[:, None, 1], out=t1)
    np.add(t0, t1, out=out)


def magnus_legs_by_ufuncs(legs: lame._Legs, lambda_acc: float) -> tuple[np.ndarray, ...]:
    """``lame._magnus_legs`` as the scan it replaced: every 2x2 product
    three broadcast ufunc calls, each product in place, and the census
    counted along two axes at once.  Same steps and association order,
    in fresh arrays rather than the scratch of legs.  Returns the far
    nodes, the census, each leg's drift and each leg's sign verdict:
    whether c or s is negative at some node."""
    block, nb, eye = lame._BLOCK, legs.blocks, lame._EYE
    e, d0, d1, f0, f1, shift = legs.consts
    q2 = legs.signs * lambda_acc - shift
    d = d1 * q2
    d += d0
    f = f1 * q2
    f += f0
    delta = e * f
    delta += d * d
    r = np.sqrt(np.abs(delta))
    grow = delta > 0.0
    C, S = np.empty_like(r), delta
    np.cosh(r, out=C, where=grow)
    np.cos(r, out=C, where=~grow)
    np.sinh(r, out=S, where=grow)
    np.sin(r, out=S, where=~grow)
    np.divide(S, r, out=S, where=r > 0.0)
    np.copyto(S, 1.0, where=r == 0.0)
    step = np.empty((2, 2, 2, block, nb))
    d *= S
    np.add(C, d, out=step[:, 0, 0])
    np.subtract(C, d, out=step[:, 1, 1])
    np.multiply(S, e, out=step[:, 0, 1])
    np.multiply(S, f, out=step[:, 1, 0])
    start = np.empty((2, 2, 2, nb))
    t0, t1 = np.empty((2, *start.shape))
    for j in range(1, block):
        _ufunc_product(step[..., j, :], step[..., j - 1, :], step[..., j, :], t0, t1)
    start[..., 0] = eye
    start[..., 1:] = step[..., -1, :-1]
    span = 1
    while span < nb:
        _ufunc_product(start[..., span:], start[..., :-span], start[..., span:],
                       t0[..., span:], t1[..., span:])
        span *= 2
    nodes = np.empty_like(step)
    _ufunc_product(step, start[..., None, :], nodes, nodes, np.empty_like(nodes))
    negative = (nodes[:, 0] < 0.0).any(axis=(1, 2, 3))
    signs = step
    np.multiply(nodes[..., :-1, :], nodes[..., 1:, :], out=signs[..., :-1, :])
    np.multiply(nodes[..., -1, :-1], nodes[..., 0, 1:], out=signs[..., -1, :-1])
    np.multiply(eye, nodes[..., 0, 0], out=signs[..., -1, -1])
    census = np.count_nonzero(signs < 0.0, axis=(3, 4))
    end = nodes[..., -1, -1].copy()
    drift = np.abs(end[:, 0, 0] * end[:, 1, 1] - end[:, 1, 0] * end[:, 0, 1] - 1.0)
    return end, census, drift, negative
