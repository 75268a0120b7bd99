"""Closed-form probability laws for circle cross ratios and geodesic lengths.

Implements the full cross-ratio law on the line, the canonical
quadrilateral law on [2, inf), the geodesic length laws with their dual
branch, and the normalized Cauchy law, together with closed-form
cumulative distributions built on the quadrilateral law's exact survival
function, the quadrilateral median, and the quadrilateral inverse CDF
as one Chebyshev series, which :func:`sample_quad_cr_values` reads (the
Monte Carlo samplers and the torus sampler draw circle points instead).
Every Chebyshev series in the package, here and in modmap, is evaluated
by one Clenshaw recurrence, :func:`_clenshaw`.  Every law evaluation,
here and in modmap, takes scalars or arrays through one protocol,
:func:`_apply` (the :func:`_elementwise` decorator on each law): an
array goes through in blocks of 2^15 points, so the peak is the output
plus block-sized scratch, and a scalar gives a float.
The length dictionary is written here once: the perpendicular length
2 artanh(Q^-1/2) in :func:`_short_length` (public, with its range
check, as :func:`perpendicular_length`), the dual length
2 arccosh(sqrt Q) in :func:`_dual_length`, and their inverses
coth^2(x/2) and cosh^2(x/2) in :func:`length_cdf`.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import Chebyshev, legendre

__all__ = [
    "LENGTH_THRESHOLD",
    "crossratio_pdf",
    "crossratio_cdf",
    "quad_cr_pdf",
    "quad_cr_cdf",
    "quad_cr_median",
    "length_pdf",
    "length_pdf_dual",
    "length_cdf",
    "length_branch_cdf",
    "perpendicular_length",
    "length_mean",
    "length_branch_median",
    "star_pdf",
    "star_cdf",
    "QuadCrInverseCdf",
    "sample_quad_cr_values",
]

_PI2 = math.pi**2

# Right endpoint of the shortest-geodesic branch; the two length branches
# meet here and the canonical cross ratio coth^2(x/2) equals 2.
LENGTH_THRESHOLD = 2.0 * math.log(1.0 + math.sqrt(2.0))

_SERIES_CUT = 1e-6


# Array evaluations run over blocks of this many points, so their
# temporaries stay small next to the caller's arrays.
_BLOCK = 1 << 15


def _blockwise(fn, x: np.ndarray) -> np.ndarray:
    """fn applied elementwise to x, one block of points at a time.

    Up to one block, x goes to fn as it is, so a call nested inside
    another walk's block copies nothing.
    """
    if len(x) <= _BLOCK:
        return fn(x)
    out = np.empty_like(x)
    for i in range(0, len(x), _BLOCK):
        out[i:i + _BLOCK] = fn(x[i:i + _BLOCK])
    return out


def _apply(fn, x):
    """fn over x as a float array, block by block; a float if x is a scalar.

    The package's one scalar/array protocol: x goes to fn as a 1-d (or
    higher) float array, and a Python or numpy scalar, 0-d arrays
    included, gives the float fn returns for it.
    """
    out = _blockwise(fn, np.atleast_1d(np.asarray(x, dtype=float)))
    return out[0].item() if np.ndim(x) == 0 else out


def _elementwise(fn):
    """fn, an elementwise function of float arrays, taking scalars or arrays
    through :func:`_apply`."""
    return functools.wraps(fn)(lambda x: _apply(fn, x))


def _clenshaw(series: Chebyshev, x, work=None):
    """series(x), numpy's Clenshaw recurrence op for op.

    The domain map off + scl x to t, x2 = 2t, then per coefficient
    c0, c1 = c[-i] - c1, c0 + c1 x2, and c0 + c1 t last, as
    ``Chebyshev.__call__`` does, reading ``mapparms()`` and ``coef`` on
    each call; so the values agree bit for bit, in the shape of x (a
    float gives a 0-d array).  The recurrence runs in place in five
    arrays the size of x: t, a copy of x, which ends as the result; x2;
    c1 and a spare, between which the new c1 alternates; and c0.  So a
    call allocates five arrays, whatever the degree.  Given ``work``,
    four float arrays shaped like x for x2, c1, c0 and the spare, t is
    x itself, a float array, which is consumed and returned, and
    nothing is allocated.  This is the package's one series evaluator.
    """
    off, scl = series.mapparms()
    c = series.coef
    shape = np.shape(x)
    t = np.array(x, dtype=float).reshape(-1) if work is None else x
    t *= scl
    t += off
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    if len(c) > 2:
        x2, acc, buf, spare = work if work is not None else (np.empty_like(t) for _ in range(4))
        np.multiply(t, 2.0, out=x2)
        np.multiply(x2, c1, out=acc)
        acc += c0
        c0, c1 = c[-3] - c1, acc
        for i in range(4, len(c) + 1):
            np.multiply(c1, x2, out=spare)
            spare += c0
            c0 = np.subtract(c[-i], c1, out=buf)
            c1, spare = spare, c1
    t *= c1
    t += c0
    return t.reshape(shape)


# On [-1, 1/2], z = -log(1 - x) stays in [-log 2, log 2], where the
# Bernoulli series Li2 = sum_n B_n z^(n+1) / (n+1)! = z - z^2/4 + z^3 P(z^2)
# converges fast: P's coefficients are B_2k / (2k+1)!, and after k = 10
# the terms fall below 1e-22 of Li2 (Zagier, "The dilogarithm function",
# 2007).
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                   -3617 / 510, 43867 / 798, -174611 / 330)
_LI2_SERIES = np.array([b / math.factorial(2 * k + 1)
                        for k, b in enumerate(_BERNOULLI_EVEN, 1)])


def _li2_series(z):
    """Li2(x) from z = -log(1 - x), x in [-1, 1/2]: the series in Horner form."""
    w = z * z
    out = np.full_like(z, _LI2_SERIES[-1])
    for c in _LI2_SERIES[-2::-1]:
        out *= w
        out += c
    out *= z
    out -= 0.25
    out *= w
    out += z
    return out


def _li2_gap(x):
    """Li2(x) - Li2(1 - x) (real parts) for x in [-1, 2], one series each.

    By the reflection identity it is 2 Li2(y) + log|y| log(1 - y) - pi^2/6
    at y = min(x, 1 - x), with the sign of 1/2 - x; so it is odd about
    x = 1/2 by construction and exactly 0 there (+0, not -0).
    """
    y = np.minimum(x, 1.0 - x)
    z = -np.log1p(-y)
    # log|y| log(1 - y) -> 0 at y = 0
    ll = np.log(np.abs(y), out=np.zeros_like(y), where=y != 0.0) * z
    return np.sign(0.5 - x) * (2.0 * _li2_series(z) - ll - _PI2 / 6.0) + 0.0


def _nlog1p_over(x):
    """-log(1-x)/x, the slowly varying factor of every pdf branch.

    Series expansion inside |x| < 1e-6 sidesteps the 0/0 at the origin.
    Takes and returns 1-d arrays.
    """
    out = np.empty_like(x)
    small = np.abs(x) < _SERIES_CUT
    xs, xb = x[small], x[~small]
    out[small] = 1.0 + xs * (0.5 + xs * (1.0 / 3.0 + xs * 0.25))
    out[~small] = -np.log1p(-xb) / xb
    return out


@_elementwise
def crossratio_pdf(r):
    """Density of the cross ratio of four independent uniform circle points.

    Defined on the whole line with logarithmic divergences at r = 0 and
    r = 1 (the coincidence configurations); those two points return inf,
    +-inf return 0 and nan stays nan.  The three branches are assembled
    from the single helper h(x) = -log(1-x)/x, which makes continuity
    across branch boundaries automatic.  1 - r rounds to 1 below 1e-16
    and 1/r overflows near 0, so h(1 - r) = -log(r)/(1 - r) on (0, 1)
    and h(1/r)/r = log(-r) - log(1 - r) on (-1, 0) are taken from r
    itself.
    """
    h = _nlog1p_over
    out = np.full_like(r, np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mid = (r > 0.0) & (r < 1.0)
        if mid.any():
            rm = r[mid]
            out[mid] = (h(rm) - np.log(rm) / (1.0 - rm)) / _PI2
        hi = r > 1.0
        if hi.any():
            rh = r[hi]
            out[hi] = (h(1.0 - rh) / rh + h(1.0 / rh) / rh**2) / _PI2
        lo = ~(r >= 0.0)  # negative or nan
        if lo.any():
            rl = r[lo]
            inv = np.where(rl > -1.0, np.log1p(-rl) - np.log(-rl), np.log1p(-1.0 / rl))
            out[lo] = (h(rl) + inv) / ((1.0 - rl) * _PI2)
    out[np.isinf(r)] = 0.0
    return out


@_elementwise
def crossratio_cdf(r):
    """Cumulative distribution of the full cross-ratio law.

    Closed form in terms of the dilogarithm; each of the three pieces is
    validated against adaptive quadrature of :func:`crossratio_pdf` in the
    test suite.  nan maps to nan.
    """
    out = np.full_like(r, np.nan)  # nan in, nan out
    with np.errstate(invalid="ignore", divide="ignore"):
        # For r <= -1 the inversion Li2(r) = -pi^2/6 - log^2(-r)/2 - Li2(1/r)
        # cancels the 1/3 exactly and leaves two positive terms, together
        # about (log|r| + 2)/(pi^2 |r|) for large |r|, so no digits are lost.
        far = r <= -1.0
        if far.any():
            rf = r[far]
            z = -np.log1p(-1.0 / rf)  # the series variable of Li2(1/r)
            out[far] = -(np.log(-rf) * z + 2.0 * _li2_series(z)) / _PI2
        # on (-1, 2), F = 1/3 + (Li2(r) - Li2(1 - r) + pi^2/6)/pi^2, which
        # the law's symmetry F(1 - r) = 1 - F(r) carries past r = 1
        mid = (r > -1.0) & (r < 2.0)
        if mid.any():
            out[mid] = 0.5 + _li2_gap(r[mid]) / _PI2
        hi = r >= 2.0
        if hi.any():
            out[hi] = 1.0 - _quad_sf(r[hi]) / 6.0
    out[np.isneginf(r)] = 0.0
    return out


def _quad_law_expression(r):
    """The quadrilateral-law expression, defined for all r > 1.

    Only r >= 2 is a probability density; the (1, 2) range is the
    functional-equation image used by the F-identity checks.
    """
    r = np.asarray(r, dtype=float)
    return 6.0 * (np.log(r) / ((r - 1.0) * r) - np.log1p(-1.0 / r) / r) / _PI2


def _quad_sf(r):
    """Survival 1 - F of the quadrilateral law, r >= 2.

    Integrating the density (6/pi^2) sum_{k>=2} r^-k (log r + 1/(k-1))
    term by term gives (6/pi^2)(2 Li2(1/r) - log r log(1 - 1/r)), two
    positive terms that keep full relative accuracy as r -> inf; 1/r is
    in the series' range, whose variable z is also the second log.
    """
    r = np.asarray(r, dtype=float)
    z = -np.log1p(-1.0 / r)  # the series variable of Li2(1/r)
    with np.errstate(invalid="ignore"):
        out = 6.0 / _PI2 * (2.0 * _li2_series(z) + np.log(r) * z)
    return np.where(np.isposinf(r), 0.0, out)


@_elementwise
def quad_cr_pdf(r):
    """Density of the canonical quadrilateral cross ratio on [2, inf), 0 outside."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where((r < 2.0) | np.isposinf(r), 0.0, _quad_law_expression(r))


@_elementwise
def quad_cr_cdf(r):
    """Cumulative distribution of the canonical quadrilateral law, 0 below 2."""
    # 1 - S = (6/pi^2)(Li2(1 - 1/r) - Li2(1/r)) by the reflection identity:
    # exactly 0 at r = 2, exactly 1 at inf
    return _li2_gap(1.0 - 1.0 / np.maximum(r, 2.0)) / (_PI2 / 6.0)


def quad_cr_median() -> float:
    """The median of the quadrilateral law: the quantile at z = log(1 + log 2)."""
    return math.exp(_log_quantile(math.log1p(math.log(2.0))))


@_elementwise
def length_pdf(ell):
    """Density of the shortest-geodesic length on (0, LENGTH_THRESHOLD].

    Out-of-support arguments return 0 rather than raising; the dual
    branch beyond the threshold is covered by :func:`length_pdf_dual`.
    """
    return np.where(ell > LENGTH_THRESHOLD, 0.0, 2.0 * length_pdf_dual(ell))


@_elementwise
def length_pdf_dual(x):
    """The full-line sampling density X of geodesic lengths, x > 0.

    Half the shortest-geodesic expression extended to all positive x: its
    restriction below the threshold covers the shortest geodesic, above
    it the dual, and coth^2(x/2) pushes the law forward to the
    quadrilateral law.  Three regimes: a series below 1e-6, the direct
    expression (with the exact rewriting cosh x - 1 = 2 sinh^2(x/2)) up
    to x = 350, and the exponential tail beyond, where cosh would
    overflow.  Nonpositive arguments and inf return 0; nan stays nan.
    """
    out = np.where(np.isnan(x), np.nan, 0.0)

    small = (x > 0.0) & (x <= _SERIES_CUT)
    if small.any():
        xs = x[small]
        out[small] = 3.0 / _PI2 * (0.5 * xs + xs * (math.log(2.0) - np.log(xs)))

    mid = (x > _SERIES_CUT) & (x <= 350.0)
    if mid.any():
        xm = x[mid]
        sh = np.sinh(0.5 * xm)
        # log coth(x/2) via log1p keeps the term alive where tanh
        # rounds to 1 (x > ~37); log cosh via log1p(2 sinh^2) avoids the
        # cancellation at small x
        ex = np.exp(-xm)
        logcoth = np.log1p(ex) - np.log1p(-ex)
        logcosh = np.log1p(2.0 * np.sinh(0.25 * xm) ** 2)
        bracket = 4.0 * logcosh + 4.0 * sh * sh * logcoth
        out[mid] = 3.0 / _PI2 * bracket / np.sinh(xm)

    tail = (x > 350.0) & (x < np.inf)
    if tail.any():
        xt = x[tail]
        # csch -> 2e^{-x}, 4 log cosh(x/2) -> 4(x/2 - log 2), the second
        # bracket term -> 2; everything below e^{-350} in relative size
        # is dropped.  The product (3/pi^2) 2e^{-x} (2x + 2 - 4 log 2)
        # is grouped so that no factor overflows.
        out[tail] = 12.0 / _PI2 * np.exp(-xt) * (xt + 1.0 - 2.0 * math.log(2.0))
    return out


@_elementwise
def length_cdf(x):
    """Cumulative distribution of the full-line length density."""
    out = np.full_like(x, np.nan)  # nan in, nan out
    out[x <= 0.0] = 0.0
    shortb = (x > 0.0) & (x <= LENGTH_THRESHOLD)
    if shortb.any():
        xs = x[shortb]
        with np.errstate(divide="ignore", over="ignore"):
            q = 1.0 / np.tanh(0.5 * xs) ** 2
        out[shortb] = 0.5 * _quad_sf(np.maximum(q, 2.0))
    longb = x > LENGTH_THRESHOLD
    if longb.any():
        xl = x[longb]
        q = np.cosh(np.minimum(0.5 * xl, 350.0)) ** 2
        out[longb] = 1.0 - 0.5 * _quad_sf(np.maximum(q, 2.0))
    return out


@_elementwise
def length_branch_cdf(x):
    """Cumulative distribution of the shortest-geodesic branch.

    Twice :func:`length_cdf` below the threshold, as :func:`length_pdf`
    is twice :func:`length_pdf_dual`, and 1 from the threshold on
    (coth^2 of the rounded threshold is 2 plus an ulp, so the support's
    right end is set explicitly).
    """
    return np.where(x >= LENGTH_THRESHOLD, 1.0, 2.0 * length_cdf(x))


def _short_length(q):
    """2 artanh(Q^-1/2), the short-branch length of cross ratio Q >= 2,
    on a float array or one float."""
    return 2.0 * np.arctanh(1.0 / np.sqrt(q))


def _dual_length(q):
    """2 arccosh(sqrt Q), the dual-branch length of cross ratio Q >= 2,
    on a float array or one float."""
    return 2.0 * np.arccosh(np.sqrt(q))


@_elementwise
def perpendicular_length(q):
    """Perpendicular length 2 artanh(Q^-1/2) of canonical cross ratios Q >= 2.

    The inverse of Q = coth^2(l/2), from LENGTH_THRESHOLD at Q = 2 down
    to 2/sqrt(Q) without cancellation as Q grows.  Q below 2 raises
    ``ValueError``; nan maps to nan.
    """
    if np.any(q < 2.0):
        raise ValueError("canonical cross ratio must be >= 2")
    return _short_length(q)


def length_mean() -> float:
    """Mean shortest-geodesic length: the perpendicular length averaged
    over the quadrilateral law."""
    q, w = _quad_law_rule()
    return float(w @ perpendicular_length(q))


def length_branch_median() -> float:
    """Median of the shortest-geodesic branch.

    The branch CDF is 1 - F_Q(coth^2(x/2)), so the median is the
    perpendicular length of the quadrilateral-law median.
    """
    return perpendicular_length(quad_cr_median())


@_elementwise
def star_pdf(r):
    """Standard Cauchy density: the law of the tan(theta/2) cross ratio."""
    with np.errstate(over="ignore"):
        return 1.0 / (math.pi * (1.0 + r * r))


@_elementwise
def star_cdf(r):
    """Standard Cauchy CDF, the star law's."""
    return 0.5 + np.arctan(r) / math.pi


# The inverse CDF is a series in z = log(1 - log(1 - u)), which maps
# u in [0, 1 - 2^-53], every double below 1, onto [0, log(1 + 53 log 2)].
_U_MAX = 1.0 - 2.0**-53
_Z_MAX = math.log1p(53.0 * math.log(2.0))
_INVERSE_DEGREE = 30
_NEWTON_STEPS = 6


def _log_quantile(z):
    """log r with S(r) = exp(1 - e^z), by Newton's method on log S.

    The start is the tail S ~ (6/pi^2)(log r + 2)/r solved once for
    log r, kept at or above log 2.
    """
    v = np.expm1(z)
    y = np.maximum(v + np.log(6.0 * (v + 2.0) / _PI2), math.log(2.0))
    for _ in range(_NEWTON_STEPS):
        r = np.exp(y)
        sf = _quad_sf(r)
        y = y + (np.log(sf) + v) * sf / (r * _quad_law_expression(r))
    return y


_RULE_NODES = 40


def _quad_law_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes q and weights w with E[g(Q)] = sum w g(q) over the quadrilateral law.

    E[g(Q)] is the integral of g at the quantile of u over [0, 1]; in
    z = log(1 - log(1 - u)), with du = exp(z - expm1(z)) dz, the
    integrand is smooth on [0, log(1 + 53 log 2)], past which only 2^-53
    of the mass lies, and a 40-node Gauss-Legendre rule integrates it.
    """
    x, w = legendre.leggauss(_RULE_NODES)
    z = 0.5 * _Z_MAX * (x + 1.0)
    q = np.maximum(np.exp(_log_quantile(z)), 2.0)
    return q, 0.5 * _Z_MAX * w * np.exp(z - np.expm1(z))


def _quantile_variable(u):
    """z = log(1 - log(1 - u)) of u clamped to [0, _U_MAX].

    The variable of the quadrilateral inverse-CDF series; it maps every
    double u < 1 into [0, _Z_MAX].  u = -0.0 gives
    z = -0.0, which a domain map sends to the same point as z = 0.
    """
    return np.log1p(-np.log1p(-np.clip(u, 0.0, _U_MAX)))


class QuadCrInverseCdf:
    """Inverse CDF of the quadrilateral law as one Chebyshev series.

    log r is smooth in z = log(1 - log(1 - u)), growing like e^z in the
    tail.  A degree-30 series interpolates it, at nodes where Newton's
    method inverts the exact survival function, over the image of every
    double u < 1, so one expression covers the whole law.  Instances are
    immutable and shareable across threads; the module's one instance
    serves :func:`sample_quad_cr_values`.
    """

    def __init__(self):
        self._log_r = Chebyshev.interpolate(_log_quantile, _INVERSE_DEGREE, domain=[0.0, _Z_MAX])

    def __call__(self, u):
        return _apply(self._quantile, u)

    def _quantile(self, u):
        """The quantile at u, u clamped to [0, _U_MAX]."""
        return np.clip(np.exp(_clenshaw(self._log_r, _quantile_variable(u))), 2.0, math.inf)


_INVERSE = QuadCrInverseCdf()


def sample_quad_cr_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values from the quadrilateral law by inverse-CDF sampling."""
    return _INVERSE(rng.uniform(size=n))
