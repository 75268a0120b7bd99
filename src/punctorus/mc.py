"""Monte Carlo validation of every closed-form law in the package.

``CURVES`` holds each law's density and CDF, the one copy that the
command line and the Kolmogorov-Smirnov scoring here both read; the
modulus and Teichmueller pairs are modmap's, which owns their domain.
This module imports only closedform: modmap loads on the first call of
a modulus or Teichmueller curve or sampler, so the other laws never
load it.
Every sampler draws i.i.d. uniform points on the circle.
Uniform circle points are drawn as their half-angle tangents: the
Cayley map exp(i th) -> tan(th/2) is a Moebius map onto the real
line, so it gives the star law's Cauchy draws and leaves every cross
ratio as it is.  A rotation of the circle keeps the uniform law, so a
quadrilateral's first point is put at th = pi, where its tangent is
infinite, and every law but the star law draws three tangents per
sample.  The quadrilateral law reads its canonical cross ratio straight
from the sorted gaps of those three; the length law is the
perpendicular length of the same draws, and the modulus and
Teichmueller laws are their modulus and its log, through modmap's
inverse of the map.  A run allocates its sample and one work array of
``_WORK_ROWS`` chunk-sized rows, and each chunk is drawn into those:
the draws, the sort network and the map laws' series run there and in
the sample's own slice, so only the length law's short length
allocates arrays of a chunk's size.
Each sample is then sorted in place and summarized: its KS distance
against the closed form CDF, its histogram, its median, its clipped
fraction and the star law's quartiles all read the sorted sample, each
equal bit for bit to its plain numpy definition.  The CDF is taken at
every 64th order statistic, then in full only over the spans where the
largest KS gap can lie, one block at a time, and the sd squares its
deviations one block at a time, so every law's run holds the sample as
its only array of that size.
Each chunk of 2^14 samples draws from its own PCG64DXSM stream, keyed
by the seed and the chunk index through a SeedSequence spawn key, and
chunks run in index order on the calling thread, so the output is a
function of (seed, n) alone and the worker count never changes it.
A summary hands its histogram to the command line as ``rows()``,
which writes every CSV through one writer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import closedform as cf

if TYPE_CHECKING:
    from . import modmap

__all__ = [
    "LAWS",
    "CURVES",
    "McConfig",
    "EmpiricalSummary",
    "run_law",
]

LAWS = ("crossratio_full", "quad_cr", "length", "star", "modulus", "teich")

_CHUNK = 1 << 14
# Rows of a run's work array: the three draws, the sort network's spare
# and one more, so that beside the cross ratio the map laws' series has
# the four rows it needs
_WORK_ROWS = 5
_BINS = 200
_HIST_COLUMNS = ("bin_left", "bin_right", "count", "density")
# KS scoring takes F at every _KS_STRIDE-th order statistic, then in full
# only over the spans whose gap bound is within _KS_SLACK of the best gap
_KS_STRIDE = 64
_KS_SLACK = 1e-9

# The laws read through the modulus map; their curves take the map's
# table as an optional second argument (None: the default table).
_MAP_LAWS = ("modulus", "teich")


def _map_curve(name: str):
    """modmap's curve ``name`` as a function of (x, table=None), which
    imports modmap when first called."""
    def curve(x, table=None):
        from . import modmap

        return getattr(modmap, name)(x, table)

    return curve


_HIST_RANGE = {
    "crossratio_full": (-5.0, 5.0),
    "quad_cr": (2.0, 25.0),
    "length": (0.0, cf.LENGTH_THRESHOLD),
    "star": (-8.0, 8.0),
    "modulus": (1.0, 8.0),
    "teich": (0.0, 4.0),
}


# Density and CDF of every law, keyed by law name.  Each takes an array;
# the modulus-map laws also take an optional table.  The keys are the
# sampled LAWS plus length_dual, the full-line length law.
CURVES = {
    "crossratio_full": (cf.crossratio_pdf, cf.crossratio_cdf),
    "quad_cr": (cf.quad_cr_pdf, cf.quad_cr_cdf),
    "length": (cf.length_pdf, cf.length_branch_cdf),
    "length_dual": (cf.length_pdf_dual, cf.length_cdf),
    "star": (cf.star_pdf, cf.star_cdf),
    "modulus": (_map_curve("modulus_pdf"), _map_curve("modulus_cdf")),
    "teich": (_map_curve("teich_pdf"), _map_curve("teich_cdf")),
}


@dataclass(frozen=True)
class McConfig:
    """One sampling request; identical configs give identical outputs."""

    n_samples: int
    seed: int
    workers: int = 1
    law: str = "crossratio_full"

    def __post_init__(self) -> None:
        if not isinstance(self.n_samples, (int, np.integer)):
            raise ValueError(f"sample count n_samples = {self.n_samples!r} is not an integer")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        # identical configs must give identical outputs: None would draw
        # from OS entropy and a float would be silently rounded
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**128:
            raise ValueError(f"seed = {self.seed!r} is not an integer in [0, 2**128)")
        if not isinstance(self.workers, (int, np.integer)):
            raise ValueError(f"worker count workers = {self.workers!r} is not an integer")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.law not in LAWS:
            raise ValueError(f"unknown law {self.law!r}; choose from {LAWS}")


@dataclass(frozen=True)
class EmpiricalSummary:
    """Histogram, KS distance, and the finite sample statistics."""

    law: str
    n: int
    seed: int
    bin_edges: np.ndarray
    counts: np.ndarray
    ks_distance: float
    stats: dict

    def rows(self) -> tuple[tuple[str, ...], list[tuple]]:
        """Column names and one (left, right, count, density) row per bin."""
        dens = self.counts / (self.n * np.diff(self.bin_edges))
        return _HIST_COLUMNS, list(zip(self.bin_edges[:-1].tolist(),
                                       self.bin_edges[1:].tolist(),
                                       self.counts.tolist(), dens.tolist()))

    def to_json_dict(self) -> dict:
        return {"law": self.law, "n": self.n, "seed": self.seed,
                "ks": self.ks_distance, "stats": self.stats}


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The stream of chunk ``chunk_index``: PCG64DXSM seeded by the
    SeedSequence of ``seed`` spawned at key (chunk_index,).  Each chunk's
    draws depend on (seed, chunk_index) alone, and no two chunks share a
    stream."""
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed, spawn_key=(chunk_index,))))


def _half_angle_tangents(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """tan(th/2) of uniform angles th in [0, 2 pi), drawn as ``shape``
    into ``out`` if given (a C-contiguous float array of that shape).

    The Cayley map exp(i th) -> tan(th/2), a Moebius map, carries uniform
    circle points to standard Cauchy draws on the real line.  The half
    angle U pi and the tangent run in place, bit for bit
    ``np.tan(0.5 * (U * (2 pi)))``: fl(2 pi) = 2 fl(pi), and scaling by
    2 or 0.5 is exact.
    """
    th = rng.random(shape, out=out)
    th *= math.pi
    return np.tan(th, out=th)


def _circle_cross_ratio(t: np.ndarray) -> np.ndarray:
    """(t_b - t_d) / (t_c - t_d) for the rows t = (t_b, t_c, t_d): the
    cross ratio (t_a - t_c)(t_b - t_d) / ((t_a - t_b)(t_c - t_d)) of four
    circle points whose first, a, sits at th = pi, where its half-angle
    tangent t_a is infinite.

    Cross ratios are Moebius-invariant, so on half-angle tangents this is
    the points' own.  Pinning a keeps the law: the cross ratio of four
    circle points depends only on their angle differences, and given th_a
    the rotated angles th_j - th_a + pi (mod 2 pi) of the other three are
    again i.i.d. uniform, since a rotation is a Moebius map that keeps the
    uniform law.  So three uniform points and one at pi give the law of
    four uniform ones.  t is consumed; the result is its first row.
    """
    b, c, d = t
    b -= d
    c -= d
    b /= c
    return b


def _canonical_cross_ratio(t: np.ndarray, spare=None) -> np.ndarray:
    """The canonical cross ratio Q >= 2 of the rows t = (t_b, t_c, t_d),
    half-angle tangents of three circle points whose fourth sits at
    th = pi, where its tangent is infinite (see ``_circle_cross_ratio``).

    Three pairwise minima and maxima sort each column into
    t1 <= t2 <= t3, with gaps g1 = t2 - t1 and g2 = t3 - t2.  One orbit
    member is (t3 - t1)/(t2 - t1) = 1 + g2/g1, and the orbit of 1 + rho
    holds 1 + 1/rho, so Q = 1 + max(g1, g2)/min(g1, g2).  Each gap is
    one rounded subtraction of the drawn tangents, so Q stays within
    about 2 eps of the canonical value of those tangents wherever they
    lie, with no cancellation near the orbit's fixed points.  Two equal
    tangents give inf, three nan.  t is consumed, and so is ``spare``, a
    row like t's if given (else allocated); Q is written over t[1].
    """
    rows = [*t, np.empty_like(t[0]) if spare is None else spare]
    for i, j in ((0, 1), (1, 2), (0, 1)):
        np.minimum(rows[i], rows[j], out=rows[3])
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i], rows[3] = rows[3], rows[i]
    t1, t2, t3, _ = rows
    t3 -= t2
    t2 -= t1
    np.maximum(t2, t3, out=t1)
    np.minimum(t2, t3, out=t2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 /= t2
    t1 += 1.0
    return t1


def _sample_chunk(law: str, seed: int, chunk_index: int, count: int,
                  table: modmap.CrMapTable | None, out=None, work=None) -> np.ndarray:
    """count draws of ``law`` from chunk ``chunk_index``'s stream, written
    to ``out`` and returned.  ``work`` holds at least ``_WORK_ROWS`` count
    floats of scratch; either is allocated if not given.  Only the
    length law's short length allocates other arrays of count floats."""
    rng = _chunk_rng(seed, chunk_index)
    out = np.empty(count) if out is None else out
    if law == "star":
        return _half_angle_tangents(rng, count, out)
    rows = (np.empty(_WORK_ROWS * count) if work is None
            else work[:_WORK_ROWS * count]).reshape(_WORK_ROWS, count)
    t = _half_angle_tangents(rng, (3, count), rows[:3])
    if law == "crossratio_full":
        out[:] = _circle_cross_ratio(t)
        return out
    q = _canonical_cross_ratio(t, rows[3])
    if law in ("quad_cr", "length"):
        out[:] = q if law == "quad_cr" else cf._short_length(q)
        return out
    from . import modmap

    # Q sits in row 1, so the other four rows are free for the series
    return modmap._map_law_draws(law, q, out, (rows[0], *rows[2:]), table)


def _sample(law: str, seed: int, n: int, table: modmap.CrMapTable | None) -> np.ndarray:
    """n draws of ``law``, chunk by chunk into one preallocated array,
    with one work array for every chunk's scratch."""
    values = np.empty(n)
    work = np.empty(_WORK_ROWS * min(n, _CHUNK))
    for c, start in enumerate(range(0, n, _CHUNK)):
        count = min(_CHUNK, n - start)
        _sample_chunk(law, seed, c, count, table, values[start:start + count], work)
    return values


def _ks_grids(xs: np.ndarray, at: np.ndarray, cdf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F at the order statistics ``at`` of sorted xs, and the grids
    (i+1)/n and i/n there, by the same IEEE operations as whole aranges."""
    i = at.astype(float)
    return cdf(xs[at]), (i + 1.0) / len(xs), i / len(xs)


def _ks_distance(xs: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance of sorted xs from ``cdf``, span by span.

    F is taken at every ``_KS_STRIDE``-th order statistic and the last,
    the anchors.  Between two of them, p < q, a monotone F lies in
    [F(x_p), F(x_q)], so no gap inside the span exceeds
    max((q+1)/n - F(x_p), F(x_q) - p/n); only the spans whose bound
    comes within ``_KS_SLACK`` of the best anchor gap are evaluated, in
    pieces of at most one block.  Each gap, (i+1)/n - F or F - i/n, is
    taken as over the whole array, so the maximum is bit-identical to
    the whole-array one.  Every law's CDF falls at most about 1e-16
    below its running maximum, far inside the slack.  nan sorts last,
    into the last anchor, and ``np.max``, unlike Python's ``max``,
    returns it.
    """
    n = len(xs)
    at = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    f, hi, lo = _ks_grids(xs, at, cdf)
    tops = [np.max(hi - f), np.max(f - lo)]
    bound = np.maximum(hi[1:] - f[:-1], f[1:] - lo[:-1])
    spans = at[:-1][(bound >= np.max(tops) - _KS_SLACK) & (np.diff(at) > 1)]
    step = cf._BLOCK // _KS_STRIDE
    for s in range(0, len(spans), step):
        inner = (spans[s:s + step, None] + np.arange(1, _KS_STRIDE)).ravel()
        f, hi, lo = _ks_grids(xs, inner[inner < n - 1], cdf)
        tops += [np.max(hi - f), np.max(f - lo)]
    return np.max(tops).item()


def _sorted_quantile(xs: np.ndarray, q: float) -> float:
    """``np.quantile(xs, q)`` of sorted xs, without its partition copy.

    numpy's 'linear' arithmetic op for op: the virtual index (n - 1) q,
    its floor j and gamma = index - j, where the top index reads the last
    value at j = -1; then ``_lerp``, a + (b - a) gamma, or
    b - (b - a)(1 - gamma) once gamma >= 0.5.  Python floats round as
    the ufuncs do.  A nan, which sorts last, makes the quantile nan.
    Where -0.0 and 0.0 tie, the sign read is the sorted sample's, while
    np.quantile's partition may pick either.
    """
    n = len(xs)
    last = xs[-1].item()
    if math.isnan(last):
        return last
    v = (n - 1) * q
    j = math.floor(v) if v < n - 1 else -1
    a, b = (xs[j].item(), xs[j + 1].item()) if j >= 0 else (last, last)
    t = v - j
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _squared_deviation_sum(values: np.ndarray, mean: float, scratch: np.ndarray) -> float:
    """sum((values - mean)^2) in numpy's pairwise order, one block at a time.

    A span of more than 128 points splits at n // 2 rounded down to a
    multiple of 8, and the halves' sums are added.  The split is walked
    down to spans of at most one block; each span's squared deviations
    go into ``scratch`` and ``np.add.reduce`` sums them by the same
    recursion, and the spans' sums are added back in the tree's order.
    It recurses at module level: a nested recursive function would hold
    the sample in a reference cycle until the next garbage collection.
    """
    n = len(values)
    if n > cf._BLOCK:
        n2 = n // 2
        n2 -= n2 % 8
        return (_squared_deviation_sum(values[:n2], mean, scratch)
                + _squared_deviation_sum(values[n2:], mean, scratch))
    d = np.subtract(values, mean, out=scratch[:n])
    np.multiply(d, d, out=d)
    return np.add.reduce(d).item()


def _sd(values: np.ndarray, mean: float) -> float:
    """``values.std()`` of a contiguous float64 array whose mean, as
    ``values.mean()`` takes it, is ``mean``, bit for bit, nan and inf
    included, but with one block of scratch in place of its sample-sized
    temporary: sqrt(sum((x - mean)^2) / n), the sum taken in numpy's
    own order (``_squared_deviation_sum``)."""
    scratch = np.empty(min(len(values), cf._BLOCK))
    return math.sqrt(_squared_deviation_sum(values, mean, scratch) / len(values))


def _summary(values: np.ndarray, law: str, table: modmap.CrMapTable | None
             ) -> tuple[float, np.ndarray, np.ndarray, dict]:
    """KS distance, histogram counts and edges, and stats of one sample.

    The mean and sd read values first, unsorted, since they depend on
    its summation order; then values is sorted in place, and every order
    statistic comes from it.  Each number equals its plain numpy
    definition bit for bit: ``values.mean()``, ``values.std()`` taken
    block by block (``_sd``), the largest KS gap against two arange grids
    over n, taken only over the spans of the sorted sample where it can
    lie (``_ks_distance``), ``np.histogram`` of the sample clipped to
    the law's range (bin i is [e_i, e_i+1), the last bin closed, nan
    dropped), ``np.median``, ``np.quantile`` (``_sorted_quantile``) and
    the mean of the clip mask.  No step allocates another array of the
    sample's size.  values is consumed: it is left sorted.
    """
    n = len(values)
    moments = {}
    if law in ("length", "teich", "modulus"):
        moments["mean"] = float(values.mean())
    if law in ("length", "teich"):
        moments["sd"] = _sd(values, moments["mean"])
    values.sort()
    xs = values
    curve = CURVES[law][1]
    ks = _ks_distance(xs, (lambda x: curve(x, table)) if law in _MAP_LAWS else curve)

    lo, hi = _HIST_RANGE[law]
    edges = np.linspace(lo, hi, _BINS + 1)
    # nan sorts last, so the last end counts the non-nan values: the
    # histogram and the clip mask skip nan, and the median is nan
    ends = np.searchsorted(xs, np.append(edges[1:-1], np.nan))
    counts = np.diff(ends, prepend=0)
    non_nan = ends[-1].item()
    clipped = np.searchsorted(xs, lo) + non_nan - np.searchsorted(xs, hi, side="right")
    # np.median's mean of the middle one or two, or the nan it finds last
    median = xs[-1] if non_nan < n else np.mean(xs[(n - 1) // 2:n // 2 + 1])
    out: dict = {"median": float(median), "clipped_fraction": clipped.item() / n}
    if law == "star":
        out["iqr"] = _sorted_quantile(xs, 0.75) - _sorted_quantile(xs, 0.25)
    out.update(moments)
    return ks, counts, edges, out


def run_law(cfg: McConfig, table: modmap.CrMapTable | None = None) -> EmpiricalSummary:
    """Sample one law per the config and summarize.

    Chunks of 2^14 samples each draw from their own stream, keyed by
    (seed, chunk index) (see ``_chunk_rng``), in index order on the
    calling thread, so the output is a function of (seed, n) only, and
    runs at two sizes share their full chunks; ``cfg.workers`` is
    accepted and changes nothing.  The modulus-map laws pass ``table`` to
    ``modmap`` as it is, where None means the default table.  Each chunk
    is written into one preallocated sample, which the summary sorts in
    place (see ``_summary``), so for every law run_law's peak memory is
    one array of the sample's size plus block-sized scratch.
    """
    n = cfg.n_samples
    ks, counts, edges, stats = _summary(_sample(cfg.law, cfg.seed, n, table), cfg.law, table)
    return EmpiricalSummary(
        law=cfg.law, n=n, seed=cfg.seed, bin_edges=edges, counts=counts,
        ks_distance=ks, stats=stats)
