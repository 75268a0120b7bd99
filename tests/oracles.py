"""Reference routes the package no longer carries, kept as test oracles."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from punctorus import closedform
from punctorus.hypgeom import MoebiusMap, _orbit_images
from punctorus.torusgroup import _TANGENT_TOL, GeneratorPair, _tangent_point

# the three degenerate cross ratios, infinity with both signs
_DEGENERATE_VALUES = (0.0, 1.0, math.inf, -math.inf)
_INFINITY = complex(math.inf)


def sample_length_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values from the full-line length density X, as arrays.

    A fair coin picks the branch: u < 1/2 gives the short length at the
    quantile of 1 - 2u, u >= 1/2 the dual one at that of 2u - 1.  All n
    draws read ``rng.uniform(size=n)`` and go through both branches as
    arrays; ``closedform._length_draw`` must give the same value at one
    uniform bit for bit.
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
    """kappa = 1 + pi sum_j |d log CR / d th_j| of each row of four angles.

    log CR = log sin((a-c)/2) + log sin((b-d)/2) - log sin((a-b)/2)
    - log sin((c-d)/2), so each partial is a sum of half cotangents.  An
    angle in [0, 2 pi) carries a rounding error of at most about pi eps,
    so eps kappa scales the relative error that rounding the four angles
    alone puts on the cross ratio.
    """
    a, b, c, d = th.T
    ac, bd, ab, cd = (0.5 / np.tan(0.5 * x) for x in (a - c, b - d, a - b, c - d))
    grad = np.abs(ac - ab) + np.abs(bd + ab) + np.abs(ac + cd) + np.abs(bd - cd)
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
    return tuple(float(x) for x in _orbit_images(float(lam)))


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
