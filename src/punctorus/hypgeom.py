"""Moebius and cross-ratio algebra on the extended plane.

Foundations used by every other module: the four-point cross ratio with
its six-element orbit under parameter substitution, and the canonical
representative >= 2 for concyclic quadruples.  Points of the extended
plane are Python ``complex`` values, with ``complex(math.inf)`` as the
point at infinity (any value that ``cmath.isinf`` flags counts as it).
The orbit expression is written once, in plain arithmetic, for both a
scalar and the Monte Carlo module's arrays.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "CrossRatio",
    "MoebiusMap",
    "cross_ratio",
    "s4_orbit",
]

# the three degenerate cross ratios, infinity with both signs
_DEGENERATE_VALUES = (0.0, 1.0, math.inf, -math.inf)
_REAL_TOL = 1e-9
_INFINITY = complex(math.inf)


@dataclass(frozen=True)
class CrossRatio:
    """A cross-ratio value together with its substitution orbit.

    ``orbit`` and ``canonical`` are ``None`` for degenerate values
    (0, 1, infinity); ``canonical`` additionally requires the value to be
    real, which for four distinct points means they are concyclic.
    """

    value: complex | float
    orbit: tuple[float, ...] | tuple[complex, ...] | None
    canonical: float | None


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

    def normalized(self) -> "MoebiusMap":
        """Rescale the entries to determinant one (up to overall sign)."""
        s = cmath.sqrt(self.det())
        return MoebiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        if cmath.isinf(z):
            return _INFINITY if self.c == 0 else complex(self.a / self.c)
        den = self.c * z + self.d
        if den == 0:
            return _INFINITY
        return complex((self.a * z + self.b) / den)


def cross_ratio(z1: complex, z2: complex, z3: complex, z4: complex) -> CrossRatio:
    """Cross ratio (z1-z3)(z2-z4) / ((z1-z2)(z3-z4)) of four points.

    The points are complex or real numbers.  At most one may be
    infinite; the two factors containing it are cancelled analytically
    rather than evaluated, so no IEEE infinities enter the arithmetic.
    Input configurations that make the formula indeterminate (a
    vanishing factor in both numerator and denominator) raise
    ``ValueError``.

    Returns a :class:`CrossRatio`.  The orbit and canonical fields are
    populated only for nondegenerate values; the canonical representative
    (the orbit element >= 2) exists exactly when the value is real, i.e.
    when the four points are concyclic.
    """
    pts = (z1, z2, z3, z4)
    infinite = tuple(map(cmath.isinf, pts))
    if not any(infinite):
        num1, num2 = z1 - z3, z2 - z4
        den1, den2 = z1 - z2, z3 - z4
        num_zero = num1 == 0 or num2 == 0
        den_zero = den1 == 0 or den2 == 0
        if num_zero and den_zero:
            raise ValueError("degenerate input: coincident points")
        if den_zero:
            value = math.inf
        else:
            value = (num1 * num2) / (den1 * den2)
        return _build_record(value)

    if infinite.count(True) > 1:
        raise ValueError("at most one of the four points may be infinity")
    idx = infinite.index(True)
    a, b, c = (z for z, inf in zip(pts, infinite) if not inf)
    # The two factors containing the infinite point cancel to +-1 in
    # the limit; what survives depends on which argument blew up.
    if idx == 0:
        value = _safe_div(a - c, b - c)  # (z2-z4)/(z3-z4)
    elif idx == 1:
        value = -_safe_div(a - b, b - c)  # -(z1-z3)/(z3-z4)
    elif idx == 2:
        value = -_safe_div(b - c, a - b)  # -(z2-z4)/(z1-z2)
    else:
        value = _safe_div(a - c, a - b)  # (z1-z3)/(z1-z2)
    return _build_record(value)


def _safe_div(num: complex, den: complex) -> complex | float:
    if den == 0:
        if num == 0:
            raise ValueError("degenerate input: coincident points")
        return math.inf
    return num / den


def _build_record(value: complex | float) -> CrossRatio:
    if isinstance(value, float) and math.isinf(value):
        return CrossRatio(value=math.inf, orbit=None, canonical=None)
    v = complex(value)
    if abs(v.imag) <= _REAL_TOL * (1.0 + abs(v)):
        x = v.real
        if x in _DEGENERATE_VALUES:
            return CrossRatio(value=x, orbit=None, canonical=None)
        orbit = s4_orbit(x)
        return CrossRatio(value=x, orbit=orbit, canonical=max(orbit))
    orbit = tuple(_orbit_images(v))
    return CrossRatio(value=v, orbit=orbit, canonical=None)


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
