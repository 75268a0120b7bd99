"""Reference routes the package no longer carries, kept as test oracles."""
from __future__ import annotations

import numpy as np

from punctorus import closedform
from punctorus.hypgeom import MoebiusMap, s4_orbit
from punctorus.torusgroup import IsometricCircle


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


def canonical_representative(lam: float) -> float:
    """The unique orbit element >= 2 of a real nondegenerate cross ratio.

    For every real ``lam`` outside {0, 1} the maximum of the six orbit
    values is at least 2 and all other elements are below 2.  Boundary
    orbits through {-1, 1/2, 2} return exactly 2.
    """
    return max(s4_orbit(lam))


def inverse(m: MoebiusMap) -> MoebiusMap:
    """The inverse of m: the adjugate of its determinant-one representative."""
    n = m.normalized()
    return MoebiusMap(n.d, -n.b, -n.c, n.a)


def isometric_circle(m: MoebiusMap) -> IsometricCircle:
    """Isometric circle |cz + d| = 1 of a determinant-one representative.

    Normalizes m, where ``GeneratorPair.circles`` normalizes nothing.
    Maps fixing infinity (c = 0) have none and raise.
    """
    n = m.normalized()
    if n.c == 0:
        raise ValueError("map fixes infinity and has no isometric circle")
    return IsometricCircle(complex(-n.d / n.c), 1.0 / abs(n.c))
