"""Moebius and cross-ratio algebra on the extended plane.

Foundations used by every other module: the four-point cross ratio and
the fractional linear maps that preserve it.  Points of the extended
plane are Python ``complex`` values, with ``complex(math.inf)`` as the
point at infinity (any value that ``cmath.isinf`` flags counts as it).
The six-element orbit of a cross ratio under parameter substitution is
written once, in plain arithmetic, for the Monte Carlo module's arrays;
its maximum is the canonical representative >= 2 of a concyclic
quadruple.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "CrossRatio",
    "MoebiusMap",
    "cross_ratio",
]

_REAL_TOL = 1e-9
_SAFE = 2.0**-500


@dataclass(frozen=True)
class CrossRatio:
    """A cross-ratio value: ``math.inf`` when it is infinite, a float when
    it is real (for four distinct points: when they are concyclic), and a
    complex otherwise."""

    value: complex | float


@dataclass(frozen=True)
class MoebiusMap:
    """A fractional linear map z -> (a z + b) / (c z + d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __post_init__(self) -> None:
        det = self.det()
        if det == 0 or not cmath.isfinite(det):
            raise ValueError(f"Moebius map must have a finite nonzero determinant, got {det}")


def cross_ratio(z1: complex, z2: complex, z3: complex, z4: complex) -> CrossRatio:
    """Cross ratio (z1-z3)(z2-z4) / ((z1-z2)(z3-z4)) of four points.

    The points are complex or real numbers.  At most one may be
    infinite; the two factors containing it are cancelled analytically
    rather than evaluated, so no IEEE infinities enter the arithmetic.
    When the plain products leave [2**-500, 2**500], each factor is
    split into a mantissa and a power of two first, so nothing
    overflows or underflows on the way to a value that fits in a
    double; a value too large for one raises ``ValueError``.  Input configurations that make the formula
    indeterminate (a vanishing factor in both numerator and denominator)
    raise ``ValueError`` too.

    Returns a :class:`CrossRatio`.  A value within 1e-9 (1 + |value|)
    of the real axis is returned as its real part, a float.
    """
    pts = (z1, z2, z3, z4)
    infinite = tuple(map(cmath.isinf, pts))
    if not any(infinite):
        top, bottom = (z1 - z3) * (z2 - z4), (z1 - z2) * (z3 - z4)
        # Products this far inside the range divide without overflow or
        # underflow, to the bits the scaled route below gives them; a
        # zero or an extreme factor takes that route.
        if _SAFE < abs(top) < 1.0 / _SAFE and _SAFE < abs(bottom) < 1.0 / _SAFE:
            return _build_record(top / bottom)
    if infinite.count(True) > 1:
        raise ValueError("at most one of the four points may be infinity")
    # The numerator's factors, then the denominator's, as index pairs.
    # The two containing an infinite point cancel to +-1 in the limit:
    # -1 when it is z2 or z3, which enter one factor with a minus sign.
    num, den = ((0, 2), (1, 3)), ((0, 1), (2, 3))
    negate = False
    if any(infinite):
        k = infinite.index(True)
        num = tuple(f for f in num if k not in f)
        den = tuple(f for f in den if k not in f)
        negate = k in (1, 2)
    num = [_split(pts[i], pts[j]) for i, j in num]
    den = [_split(pts[i], pts[j]) for i, j in den]
    num_zero = any(m == 0 for m, _ in num)
    den_zero = any(m == 0 for m, _ in den)
    if num_zero and den_zero:
        raise ValueError("degenerate input: coincident points")
    if den_zero:
        return _build_record(math.inf)
    top, bottom = math.prod(m for m, _ in num), math.prod(m for m, _ in den)
    scale = sum(e for _, e in num) - sum(e for _, e in den)
    try:
        value = _ldexp(top / bottom, scale)
    except OverflowError:
        raise ValueError("the cross ratio is too large for a double") from None
    return _build_record(-value if negate else value)


def _ldexp(z, e: int):
    """z * 2**e, exact unless the result leaves the normal range."""
    if isinstance(z, complex):
        return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
    return math.ldexp(z, e)


def _split(a, b) -> tuple:
    """The difference a - b of two finite points as (m, e), a - b = m 2**e
    with the larger of |m.real|, |m.imag| in [1/2, 1), or m = 0.  A
    difference that overflows is formed from the halves instead."""
    d, e = a - b, 0
    if cmath.isinf(d):
        d, e = _ldexp(a, -1) - _ldexp(b, -1), 1
    k = math.frexp(max(abs(d.real), abs(d.imag)))[1]
    return _ldexp(d, -k), e + k


def _build_record(value: complex | float) -> CrossRatio:
    if isinstance(value, float) and math.isinf(value):
        return CrossRatio(math.inf)
    v = complex(value)
    return CrossRatio(v.real if abs(v.imag) <= _REAL_TOL * (1.0 + abs(v)) else v)


def _orbit_images(lam):
    """The six substitution images of lam, a scalar or a numpy array."""
    return (
        lam,
        1.0 - lam,
        lam / (lam - 1.0),
        1.0 / lam,
        1.0 / (1.0 - lam),
        (lam - 1.0) / lam,
    )
