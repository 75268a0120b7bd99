"""The modulus-to-cross-ratio map and the laws pushed through it.

Tangency solves at Chebyshev points in s = 1/m back one Chebyshev
series for the increasing map m -> CR(m) from [1, inf) onto [2, inf)
and a second series for its inverse.  From the map come the
derivative at 1, the functional-equation extension below m = 1, and
the modulus and log-modulus densities and CDFs; from its inverse the
summary statistics, the quasi-Moebius comparison constant and the
modulus and Teichmueller draws, which mc reads from its circle draw of
the canonical cross ratio.  The map's two series reach s = 0, so one
smooth map serves every modulus, beyond the last node included.  Only
this module knows that the map starts at the square, m = 1/tau = 1.
The default table ships as data: the 16 solved nodes of
``build_cr_table()``, read without a solve.  Only a build imports the
solver, ``lame``, so the laws, ``teich`` and ``quasimobius`` run
without loading it.
Both series are evaluated by closedform's one series evaluator,
``_clenshaw``; the Chebyshev objects only hold their coefficients.
"""
from __future__ import annotations

import csv
import functools
import math
from pathlib import Path

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebpts2

from .tabular import csv_text
from .closedform import (_apply, _clenshaw, _quad_law_expression, _quad_law_rule, quad_cr_cdf,
                         quad_cr_median)

__all__ = [
    "CrMapTable",
    "build_cr_table",
    "default_table",
    "cr_of_modulus",
    "modulus_of_cr",
    "asymptotic_bounds",
    "modulus_pdf",
    "teich_pdf",
    "modulus_cdf",
    "teich_cdf",
    "summary_stats",
    "quasimobius_K",
]

_PI = math.pi
_PI2 = math.pi**2

_CSV_COLUMNS = ("m", "tau", "lambda_acc", "cross_ratio",
                "a1", "r1", "a2", "r2", "residual")

# The last node of a build, and the most nodes a build takes.
_M_LAST = 50.0
_MAX_NODES = 48

# Points at which the inverse series interpolates the inverted forward
# series, and the Newton steps that invert it there.
_INVERSE_POINTS = 24
_NEWTON_STEPS = 8


def _chebpts(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev points of the second kind on [lo, hi], ends exact."""
    x = lo + 0.5 * (hi - lo) * (1.0 + chebpts2(n))
    x[-1] = hi
    return x


class CrMapTable:
    """Solved (modulus, cross ratio) nodes and the map they determine.

    With y = (pi/2) sqrt(CR), the map is y(m) = m + g(1/m), where the
    deficit g(s) = (pi/2) sqrt(CR(1/s)) - 1/s is smooth in s = 1/m.
    The first node must be the square torus, m = 1 (else ValueError),
    and one Chebyshev series of degree nodes - 1 on s in [0, 1]
    interpolates g at every node, so m -> infinity (s = 0) is inside its
    domain and no node sits there.  The inverse is a second series
    k(t) = y - m on t = 1/y in [0, 1/y(1)], interpolating at 24
    Chebyshev points where Newton's method solves k = g(t / (1 - t k));
    a lookup is then m = 1/t - k(t), the one inverse of the map, which
    the lookups, the summary statistics and the modulus and
    Teichmueller draws all read.  Both series are pure functions of the
    nodes.

    a_estimate is CR'(1) and curvature_gap is |CR''(1) - (a^2 - a)|,
    the residual of the curvature relation the functional equation
    forces at the square, both from the forward series at the first
    node, m = 1.  c_hat is the deficit at the last node.  ms and crs are
    read-only copies of the nodes, so no caller can move them under the
    series; records is the list passed in.  Instances are safe to share
    across threads.
    """

    def __init__(self, ms: np.ndarray, crs: np.ndarray, records: list[dict]):
        # a write through the shared default table would otherwise make
        # .ms or .crs disagree with the series for every later caller
        ms = np.array(ms, dtype=float)
        crs = np.array(crs, dtype=float)
        ms.flags.writeable = crs.flags.writeable = False
        if ms.ndim != 1 or ms.shape != crs.shape or len(ms) < 8:
            raise ValueError("need matching 1-d node arrays with at least 8 nodes")
        if not np.all(np.diff(ms) > 0) or not np.all(np.diff(crs) > 0):
            raise ValueError("table nodes must be strictly increasing")
        if ms[0] != 1.0 or crs[0] <= 0:
            raise ValueError("the first node must be the square torus, m = 1, "
                             f"with a positive cross ratio; got ({ms[0]!r}, {crs[0]!r})")
        self.ms = ms
        self.crs = crs
        self.records = records
        self.m_max = ms[-1].item()
        self.cr_max = crs[-1].item()
        self.c_hat = 0.5 * _PI * math.sqrt(self.cr_max) - self.m_max

        self._deficit = Chebyshev.fit(1.0 / ms, 0.5 * _PI * np.sqrt(crs) - ms,
                                      len(ms) - 1, domain=[0.0, 1.0])
        self._deficit_d1 = self._deficit.deriv()

        # y'' = s^4 g''(s) + 2 s^3 g'(s), at s = 1
        y0, dy0 = self._y(1.0).item(), self._dy(1.0).item()
        d2y0 = (_clenshaw(self._deficit.deriv(2), 1.0)
                + 2.0 * _clenshaw(self._deficit_d1, 1.0)).item()
        a = 8.0 * y0 * dy0 / _PI2
        self.a_estimate = a
        self.curvature_gap = abs(8.0 * (dy0**2 + y0 * d2y0) / _PI2 - (a * a - a))

        t_hi = 2.0 / (_PI * math.sqrt(crs[0]))
        ts = _chebpts(0.0, t_hi, _INVERSE_POINTS)
        k = np.full_like(ts, _clenshaw(self._deficit, 0.0))
        for _ in range(_NEWTON_STEPS):
            s = ts / (1.0 - ts * k)
            k -= ((k - _clenshaw(self._deficit, s))
                  / (1.0 - s * s * _clenshaw(self._deficit_d1, s)))
        self._excess = Chebyshev.fit(ts, k, _INVERSE_POINTS - 1, domain=[0.0, t_hi])

    def _y(self, m):
        """y = (pi/2) sqrt(CR(m)) at moduli m >= 1."""
        return m + _clenshaw(self._deficit, 1.0 / m)

    def _dy(self, m):
        """dy/dm at moduli m >= 1."""
        s = 1.0 / m
        return 1.0 - s * s * _clenshaw(self._deficit_d1, s)

    def _cr(self, m: np.ndarray) -> np.ndarray:
        """CR(m) at moduli m > 0, by the functional equation below 1.

        From 1 up the value is clamped to the square's exact 2, the
        support edge of the quadrilateral law.  A block with no m below
        1, as every block of the modulus CDFs is, skips the reflection.
        """
        below = m < 1.0
        flip = below.any()
        with np.errstate(over="ignore"):
            q = np.maximum((2.0 * self._y(np.maximum(m, 1.0 / m) if flip else m) / _PI) ** 2,
                           2.0)
        return np.where(below, 1.0 + 1.0 / (q - 1.0), q) if flip else q

    def _pdf(self, m: np.ndarray) -> np.ndarray:
        """The modulus density f(CR(m)) CR'(m), 0 below 1 and where CR overflows."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = self._y(m)
            q = np.maximum((2.0 * y / _PI) ** 2, 2.0)
            out = _quad_law_expression(q) * y * (8.0 * self._dy(m) / _PI2)
        return np.where((m < 1.0) | np.isposinf(q), 0.0, out)

    def _teich_pdf(self, d: np.ndarray) -> np.ndarray:
        """The log-modulus density M(e^d) e^d, 0 below 0 and where e^d overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(d)
            out = self._pdf(e) * e
        # e^d rounds to 1 just below d = 0
        return np.where((d < 0.0) | np.isposinf(e), 0.0, out)

    def _cdf(self, m: np.ndarray) -> np.ndarray:
        """The modulus CDF F_Q(CR(m)), 0 below 1."""
        return np.where(m < 1.0, 0.0, quad_cr_cdf(self._cr(np.maximum(m, 1.0))))

    def _teich_cdf(self, d: np.ndarray) -> np.ndarray:
        """The modulus CDF at e^d, 0 below 0 (where e^d can round to 1)."""
        with np.errstate(over="ignore"):
            e = np.exp(d)
        return np.where(d < 0.0, 0.0, self._cdf(e))

    def _modulus(self, Q: np.ndarray, out=None, work=None) -> np.ndarray:
        """The modulus of cross ratio Q >= 2, through y = (pi/2) sqrt(Q), at least 1.

        Given ``out`` and ``work``, four float arrays shaped like Q for
        the series (see ``_clenshaw``), nothing is allocated: Q is
        consumed, y takes its place, and 1/y and then the modulus are
        written to out.
        """
        y = np.sqrt(Q, out=None if out is None else Q)
        y *= 0.5 * _PI
        m = _clenshaw(self._excess, np.divide(1.0, y, out=out), work)
        np.subtract(y, m, out=m)
        return np.maximum(m, 1.0, out=m)

    def rows(self) -> tuple[tuple[str, ...], list[tuple[float, ...]]]:
        """Column names and the per-node solve records by increasing m."""
        return _CSV_COLUMNS, [tuple(rec[k] for k in _CSV_COLUMNS)
                              for rec in sorted(self.records, key=lambda r: r["m"])]

    def to_csv(self, path) -> None:
        """Write the per-node solve records, 17 significant digits."""
        with open(path, "w", newline="") as fh:
            fh.write(csv_text(*self.rows()))

    @classmethod
    def from_csv(cls, path) -> "CrMapTable":
        """Rebuild a table from its CSV emission, without re-solving.

        All derived quantities (the two series, a_estimate, c_hat) are
        recomputed from the stored rows, so a write/read cycle is a
        faithful round trip.
        """
        records = []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, None)
            if header is None:
                raise ValueError(f"table file {path} has no header")
            if tuple(header) != _CSV_COLUMNS:
                raise ValueError(f"unexpected table columns: {header}")
            for row in rd:
                if len(row) != len(header):
                    raise ValueError(f"table line {rd.line_num} has {len(row)} fields, "
                                     f"expected {len(header)}, in {path}")
                record = {}
                for col, field in zip(_CSV_COLUMNS, row):
                    try:
                        record[col] = float(field)
                    except ValueError:
                        raise ValueError(f"table line {rd.line_num} field {col} = {field!r} "
                                         f"is not a number, in {path}") from None
                records.append(record)
        records.sort(key=lambda r: r["m"])
        ms = np.array([r["m"] for r in records])
        crs = np.array([r["cross_ratio"] for r in records])
        return cls(ms, crs, records)


def _extrapolate(points: list[tuple[float, float]], x: float) -> float:
    """The Lagrange polynomial through points, evaluated at x (0 if none)."""
    total = 0.0
    for i, (xi, yi) in enumerate(points):
        w = yi
        for j, (xj, _) in enumerate(points):
            if j != i:
                w *= (x - xj) / (xi - xj)
        total += w
    return total


def build_cr_table(*, n: int = 16) -> CrMapTable:
    """Solve the tangency problem over a modulus grid and tabulate.

    The n nodes are Chebyshev points of the second kind in s = 1/m on
    [1/50, 1], so the square torus (m = 1) and m = 50 are nodes; they
    are the only solves.  Solves run in increasing modulus, each seeded
    with the accessory parameter extrapolated in tau from the last three
    solved nodes.  With no node solved yet the seed is 0, the exact
    value at the square (the quarter turn gives lambda(tau) tau^2 =
    -lambda(1/tau)).  Raises ValueError before any solve unless
    16 <= n <= 48: every such n matches 40 direct solves over m in
    [1.01, 200] to 2.6e-11 relative, and from 49 nodes up the degree
    n - 1 series reaches s = 0 worse (6.1e-11 at 49, 1.3e-9 at 64).  A
    solver failure at a node propagates.
    """
    from . import lame

    if not 16 <= n <= _MAX_NODES:
        raise ValueError(f"need 16 <= n <= {_MAX_NODES} nodes")
    ms = 1.0 / _chebpts(1.0 / _M_LAST, 1.0, n)[::-1]
    ms[[0, -1]] = 1.0, _M_LAST
    records: list[dict] = []
    crs = np.empty_like(ms)
    solved: list[tuple[float, float]] = []
    for i, m in enumerate(ms.tolist()):
        tau = 1.0 / m
        seed = _extrapolate(solved[-3:], tau)
        sol = lame.solve_accessory(tau, bracket=(seed, seed + 1e-6))
        solved.append((tau, sol.lambda_acc))
        crs[i] = sol.cross_ratio
        rec = sol.as_record()
        records.append({
            "m": m, "tau": rec["tau"], "lambda_acc": rec["lambda"],
            "cross_ratio": rec["cross_ratio"], "a1": rec["a1"], "r1": rec["r1"],
            "a2": rec["a2"], "r2": rec["r2"], "residual": rec["tangency_residual"],
        })
    return CrMapTable(ms, crs, records)


_DEFAULT_CSV = Path(__file__).with_name("default_table.csv")


@functools.cache
def default_table() -> CrMapTable:
    """The standard table, m in [1, 50], read once from its shipped CSV.

    default_table.csv is what ``punctorus cr-map --table`` writes:
    ``build_cr_table()``'s 16 nodes, which round-trip exactly, so no
    solve runs here.  Its rows are regenerated whenever a solver change
    moves a node; the tests compare them with a fresh build.  Concurrent
    first calls may each read the file; they get equal tables.
    """
    return CrMapTable.from_csv(_DEFAULT_CSV)


def _lookup(method: str, x, table: CrMapTable | None, invalid=None, message=""):
    """The table's ``method`` (the default table's if None) over x, by blocks;
    first ValueError(message) if ``invalid`` holds anywhere on the float array."""
    t = table if table is not None else default_table()
    if invalid is not None and invalid(np.asarray(x, dtype=float)).any():
        raise ValueError(message)
    return _apply(getattr(t, method), x)


def _map_law_draws(law: str, Q: np.ndarray, out: np.ndarray, work,
                   table: CrMapTable | None = None) -> np.ndarray:
    """The modulus draws of canonical cross ratios Q, or for ``teich``
    their logs, through the table's inverse (the default table's if
    None), written to out with ``work`` as the series' scratch; Q is
    consumed (see ``CrMapTable._modulus``).  The modulus is at least 1,
    so its log is at least 0."""
    t = table if table is not None else default_table()
    m = t._modulus(Q, out, work)
    return np.log(m, out=m) if law == "teich" else m


def cr_of_modulus(m, table: CrMapTable | None = None):
    """The cross ratio of the torus with the given modulus.

    Below 1 the functional equation CR(1/m) = CR(m)/(CR(m) - 1) takes
    over.  Scalars or arrays.
    """
    return _lookup("_cr", m, table, lambda m: m <= 0, "modulus must be positive")


def modulus_of_cr(Q, table: CrMapTable | None = None):
    """Inverse of the cross-ratio map on [2, inf).

    One pass of the table's inverse series, which covers every cross
    ratio from the first node's up to infinity.
    """
    return _lookup("_modulus", Q, table, lambda Q: Q < 2.0, "cross ratio must be at least 2")


def asymptotic_bounds(Q):
    """Sandwich for the modulus: ((pi/2) sqrt(Q) - pi/2, (pi/2) sqrt(Q)).

    The width-pi/2 band that the empirical constants make valid for
    every tabulated cross ratio.
    """
    if (np.asarray(Q, dtype=float) < 2.0).any():
        raise ValueError("cross ratio must be at least 2")
    up = _apply(lambda q: 0.5 * _PI * np.sqrt(q), Q)
    return up - 0.5 * _PI, up


def modulus_pdf(m, table: CrMapTable | None = None):
    """Density of the modulus of a random ideal quadrilateral, 0 below m = 1.

    The canonical cross-ratio law pushed through the inverse map:
    density of CR at CR(m) times CR'(m), both from the forward series.
    CR is clamped to the law's support edge at 2, where rounding can
    undershoot.
    """
    return _lookup("_pdf", m, table)


def teich_pdf(d, table: CrMapTable | None = None):
    """Density of the log of the modulus (the distance to the square), 0 below 0."""
    return _lookup("_teich_pdf", d, table)


def modulus_cdf(m, table: CrMapTable | None = None):
    """CDF of the modulus: the quadrilateral law's CDF at CR(m), 0 below m = 1."""
    return _lookup("_cdf", m, table)


def teich_cdf(d, table: CrMapTable | None = None):
    """CDF of the log of the modulus, the modulus CDF at e^d, 0 below 0."""
    return _lookup("_teich_cdf", d, table)


def summary_stats(table: CrMapTable | None = None) -> tuple[float, float, float]:
    """(mean, median, sd) of the log-modulus law.

    Moments of log(inverse map) over the quadrilateral law, by one
    Gauss-Legendre rule on its quantile function; the median is the
    pushforward of the cross-ratio median.
    """
    q, w = _quad_law_rule()
    d = np.log(modulus_of_cr(q, table))
    mean = float(w @ d)
    sd = math.sqrt(w @ (d * d) - mean * mean)
    median = math.log(modulus_of_cr(quad_cr_median(), table))
    return mean, median, sd


def quasimobius_K(Q_src: float, Q_dst: float, table: CrMapTable | None = None) -> float:
    """Stretch constant between the tori of two cross ratios.

    The larger of the two modulus ratios; 1 exactly when the arguments
    coincide, symmetric, and growing like the square-root asymptote of
    the inverse map.  Raises ValueError unless both are finite and at
    least 2.
    """
    if not all(2.0 <= q < math.inf for q in (Q_src, Q_dst)):
        raise ValueError("cross ratios must be finite and at least 2")
    a = modulus_of_cr(Q_src, table)
    b = modulus_of_cr(Q_dst, table)
    return max(a / b, b / a)
