"""Closed-form probability laws for circle cross ratios and geodesic lengths.

Implements the full cross-ratio law on the line, the canonical
quadrilateral law on [2, inf), the geodesic length laws with their dual
branch, and the normalized Cauchy law, together with closed-form
cumulative distributions, the quadrilateral median, and fast inverse-CDF
sampling used by the group samplers and the Monte Carlo module.
"""
from __future__ import annotations

import math
import threading

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import spence

__all__ = [
    "LENGTH_THRESHOLD",
    "dilog",
    "crossratio_pdf",
    "crossratio_cdf",
    "quad_cr_pdf",
    "quad_cr_cdf",
    "quad_cr_median",
    "length_pdf",
    "length_pdf_dual",
    "length_cdf",
    "length_mean",
    "length_branch_median",
    "star_pdf",
    "star_cdf",
    "QuadCrInverseCdf",
    "sample_quad_cr_values",
    "sample_length_values",
]

_PI2 = math.pi**2

# Right endpoint of the shortest-geodesic branch; the two length branches
# meet here and the canonical cross ratio coth^2(x/2) equals 2.
LENGTH_THRESHOLD = 2.0 * math.log(1.0 + math.sqrt(2.0))

_SERIES_CUT = 1e-6


def _prep(x):
    """Common scalar/array plumbing: float 1-d view plus a scalar flag."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return arr, np.ndim(x) == 0


def _ret(out, scalar):
    return out[0].item() if scalar else out


def dilog(x):
    """Real dilogarithm Li2(x) on the real line.

    For x > 1 the principal branch acquires an imaginary part; this
    evaluator returns its real part via the inversion identity, which is
    the combination every closed form here needs.  Scalars or arrays.
    """
    x, scalar = _prep(x)
    out = np.empty_like(x)
    lo = x <= 1.0
    out[lo] = spence(1.0 - x[lo])
    hi = ~lo
    if hi.any():
        xh = x[hi]
        out[hi] = _PI2 / 3.0 - 0.5 * np.log(xh) ** 2 - spence(1.0 - 1.0 / xh)
    return _ret(out, scalar)


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


def crossratio_pdf(r):
    """Density of the cross ratio of four independent uniform circle points.

    Defined on the whole line with logarithmic divergences at r = 0 and
    r = 1 (the coincidence configurations); those two points return inf.
    The three branches are assembled from the single helper
    h(x) = -log(1-x)/x, which makes continuity across branch boundaries
    automatic.  Scalars or arrays.
    """
    r, scalar = _prep(r)
    h = _nlog1p_over
    out = np.full_like(r, np.inf)
    mid = (r > 0.0) & (r < 1.0)
    if mid.any():
        rm = r[mid]
        out[mid] = (h(rm) + h(1.0 - rm)) / _PI2
    hi = r > 1.0
    if hi.any():
        rh = r[hi]
        out[hi] = (h(1.0 - rh) / rh + h(1.0 / rh) / rh**2) / _PI2
    lo = ~(r >= 0.0)  # negative or nan
    if lo.any():
        rl = r[lo]
        out[lo] = (h(rl) - h(1.0 / rl) / rl) / ((1.0 - rl) * _PI2)
    return _ret(out, scalar)


def crossratio_cdf(r):
    """Cumulative distribution of the full cross-ratio law.

    Closed form in terms of the dilogarithm; each of the three pieces is
    validated against adaptive quadrature of :func:`crossratio_pdf` in the
    test suite.  Accepts scalars or arrays.
    """
    r, scalar = _prep(r)
    out = np.empty_like(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        neg = r < 0.0
        if neg.any():
            rn = r[neg]
            out[neg] = (2.0 * spence(1.0 - rn) + np.log(-rn) * np.log1p(-rn)) / _PI2 + 1.0 / 3.0
        mid = (r >= 0.0) & (r <= 1.0)
        if mid.any():
            rm = r[mid]
            out[mid] = 1.0 / 3.0 + (spence(1.0 - rm) - spence(rm) + _PI2 / 6.0) / _PI2
        hi = r > 1.0
        if hi.any():
            out[hi] = 1.0 + _quad_cdf_core(r[hi]) / _PI2
    out[np.isneginf(r)] = 0.0
    out[np.isposinf(r)] = 1.0
    return _ret(out, scalar)


def _quad_law_expression(r):
    """The quadrilateral-law expression, defined for all r > 1.

    Only r >= 2 is a probability density; the (1, 2) range is the
    functional-equation image used by the F-identity checks.
    """
    r = np.asarray(r, dtype=float)
    return 6.0 * (np.log(r) / ((r - 1.0) * r) - np.log1p(-1.0 / r) / r) / _PI2


def _quad_cdf_core(r):
    """Dilogarithmic antiderivative of the quadrilateral expression.

    Normalized to -pi^2/6 at r = 2 and to 0 as r -> inf, so the
    probability CDF is 6/pi^2 times (core + pi^2/6).
    """
    r = np.asarray(r, dtype=float)
    return -spence(r) - 0.5 * np.log(r) ** 2 - spence(1.0 - 1.0 / r) - _PI2 / 6.0


def quad_cr_pdf(r):
    """Density of the canonical quadrilateral cross ratio on [2, inf)."""
    r, scalar = _prep(r)
    if (r < 2.0).any():
        raise ValueError("canonical cross ratio law is supported on r >= 2")
    return _ret(_quad_law_expression(r), scalar)


def quad_cr_cdf(r):
    """Cumulative distribution of the canonical quadrilateral law."""
    r, scalar = _prep(r)
    if (r < 2.0).any():
        raise ValueError("canonical cross ratio law is supported on r >= 2")
    with np.errstate(invalid="ignore"):
        out = 6.0 * (_quad_cdf_core(r) + _PI2 / 6.0) / _PI2
    out[np.isposinf(r)] = 1.0
    return _ret(out, scalar)


def quad_cr_median() -> float:
    """The median of the quadrilateral law, bracketed in [4, 5]."""
    return brentq(lambda r: quad_cr_cdf(r) - 0.5, 4.0, 5.0, xtol=1e-12)


def _sampling_density(x):
    """The full-line length density X, in overflow-safe form.

    Three regimes: a series below 1e-6, the direct expression (with the
    exact rewriting cosh x - 1 = 2 sinh^2(x/2)) up to x = 350, and the
    exponential tail beyond, where cosh would overflow.  Nonpositive
    entries return 0; callers apply their own domain policy.
    """
    x, scalar = _prep(x)
    out = np.zeros_like(x)

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

    tail = x > 350.0
    if tail.any():
        xt = x[tail]
        # csch -> 2e^{-x}, 4 log cosh(x/2) -> 4(x/2 - log 2), the second
        # bracket term -> 2; everything below e^{-350} in relative size
        # is dropped.
        out[tail] = 3.0 / _PI2 * 2.0 * np.exp(-xt) * (4.0 * (0.5 * xt - math.log(2.0)) + 2.0)

    return _ret(out, scalar)


def length_pdf(ell):
    """Density of the shortest-geodesic length on (0, LENGTH_THRESHOLD].

    Out-of-support arguments return 0 rather than raising; the dual
    branch beyond the threshold is covered by :func:`length_pdf_dual`.
    """
    ell, scalar = _prep(ell)
    inside = (ell > 0.0) & (ell <= LENGTH_THRESHOLD)
    out = np.where(inside, 2.0 * _sampling_density(ell), 0.0)
    return _ret(out, scalar)


def length_pdf_dual(ell):
    """The full-line sampling density X of geodesic lengths, x > 0.

    Half the shortest-geodesic expression extended to all positive x: its
    restriction below the threshold covers the shortest geodesic, above
    it the dual, and coth^2(x/2) pushes the law forward to the
    quadrilateral law.  Nonpositive arguments are a domain error.
    """
    ell, scalar = _prep(ell)
    if (ell <= 0.0).any():
        raise ValueError("length must be positive")
    return _ret(np.asarray(_sampling_density(ell)), scalar)


def length_cdf(x):
    """Cumulative distribution of the full-line length density."""
    x, scalar = _prep(x)
    out = np.zeros_like(x)
    shortb = (x > 0.0) & (x <= LENGTH_THRESHOLD)
    if shortb.any():
        xs = x[shortb]
        q = 1.0 / np.tanh(0.5 * xs) ** 2
        out[shortb] = 0.5 * (1.0 - quad_cr_cdf(np.maximum(q, 2.0)))
    longb = x > LENGTH_THRESHOLD
    if longb.any():
        xl = x[longb]
        q = np.cosh(np.minimum(0.5 * xl, 350.0)) ** 2
        out[longb] = 0.5 + 0.5 * quad_cr_cdf(np.maximum(q, 2.0))
    return _ret(out, scalar)


def length_mean() -> float:
    """Mean shortest-geodesic length, by adaptive quadrature."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: t * length_pdf(t), 0.0, LENGTH_THRESHOLD,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def length_branch_median() -> float:
    """Median of the shortest-geodesic branch.

    The branch CDF is 1 - F_Q(coth^2(x/2)), so the median is the
    perpendicular length of the quadrilateral-law median.
    """
    return 2.0 * math.atanh(1.0 / math.sqrt(quad_cr_median()))


def star_pdf(r):
    """Standard Cauchy density: the law of the tan(theta/2) cross ratio."""
    r, scalar = _prep(r)
    return _ret(1.0 / (math.pi * (1.0 + r * r)), scalar)


def star_cdf(r):
    r, scalar = _prep(r)
    return _ret(0.5 + np.arctan(r) / math.pi, scalar)


# Table of the inverse CDF: Chebyshev-spaced nodes in log r on [2, r_max].
_INV_NODES = 2048
_INV_R_MAX = 1e9


class QuadCrInverseCdf:
    """Inverse CDF of the quadrilateral law via a monotone table.

    2048 Chebyshev-spaced nodes in log r cover [2, 1e9]; lookups
    interpolate the monotone (cdf, log r) pairs with a PCHIP spline and
    polish with one Newton step on the closed-form CDF.  Above the table
    the survival-function asymptotic seeds a fixed-point iteration
    instead.  The finished table is immutable and shareable across
    threads; every sampler in the package reads the one default
    instance through :func:`sample_quad_cr_values`.
    """

    def __init__(self):
        k = np.arange(_INV_NODES)
        t = 0.5 * (1.0 - np.cos(math.pi * k / (_INV_NODES - 1)))
        self.r_nodes = 2.0 * (_INV_R_MAX / 2.0) ** t
        self.u_nodes = np.asarray(quad_cr_cdf(self.r_nodes))
        self.u_max = float(self.u_nodes[-1])
        self._inv = PchipInterpolator(self.u_nodes, np.log(self.r_nodes))

    def __call__(self, u):
        u, scalar = _prep(u)
        u = np.clip(u, 0.0, 1.0 - 1e-15)
        r = np.empty_like(u)
        inside = u <= self.u_max
        r[inside] = np.exp(self._inv(u[inside]))
        far = ~inside
        if far.any():
            # survival ~ (6/pi^2)(log r + 1)/r: a contraction in r.  No
            # Newton polish out here; the CDF evaluates as 1 minus a
            # cancellation-dominated residual and a step would only add
            # rounding noise.
            rt = np.full(int(far.sum()), self.r_nodes[-1])
            for _ in range(6):
                rt = (6.0 / _PI2) * (np.log(rt) + 1.0) / (1.0 - u[far])
            r[far] = rt
        if inside.any():
            ri = r[inside]
            f = np.asarray(quad_cr_cdf(ri)) - u[inside]
            df = np.asarray(_quad_law_expression(ri))
            r[inside] = np.maximum(ri - f / np.where(df > 0.0, df, 1.0), 2.0)
        return _ret(r, scalar)


_default_inverse: QuadCrInverseCdf | None = None
_default_inverse_lock = threading.Lock()


def _get_default_inverse() -> QuadCrInverseCdf:
    global _default_inverse
    with _default_inverse_lock:
        if _default_inverse is None:
            _default_inverse = QuadCrInverseCdf()
        return _default_inverse


def sample_quad_cr_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values from the quadrilateral law by inverse-CDF sampling."""
    return np.asarray(_get_default_inverse()(rng.uniform(size=n)))


def sample_length_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values from the full-line length density X.

    A fair coin picks the branch; each branch is the image of the
    quadrilateral law under its half-angle substitution.
    """
    inv = _get_default_inverse()
    u = rng.uniform(size=n)
    short = u < 0.5
    x = np.empty_like(u)
    if short.any():
        q = np.asarray(inv(np.clip(1.0 - 2.0 * u[short], 1e-16, 1.0)))
        x[short] = 2.0 * np.arctanh(1.0 / np.sqrt(np.maximum(q, 2.0)))
    if (~short).any():
        q = np.asarray(inv(np.clip(2.0 * u[~short] - 1.0, 0.0, 1.0)))
        x[~short] = 2.0 * np.arccosh(np.sqrt(np.maximum(q, 2.0)))
    return x
