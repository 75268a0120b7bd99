"""Monte Carlo validation of every closed-form law in the package.

``CURVES`` holds each law's density and CDF, the one copy that the
command line and the Kolmogorov-Smirnov scoring here both read; the
modulus and Teichmueller pairs are modmap's, which owns their domain.
Samplers draw i.i.d. uniform points on the circle, or push the
quadrilateral law's inverse-CDF draws through the relevant change of
variables, each written once elsewhere: the substitution orbit in
hypgeom, the perpendicular length in closedform, the modulus laws
through modmap's inverse of the modulus map.  Uniform circle points
are drawn as their half-angle tangents: the Cayley map
exp(i th) -> tan(th/2) is a Moebius map onto the real line, so it
gives the star law's Cauchy draws and leaves every cross ratio as it
is.  Each sample is then summarized from one sorted copy: its KS
distance against the closed form CDF, its histogram, its median, its
clipped fraction and the star law's quartiles all read that copy, each
equal bit for bit to its plain numpy definition.  The CDF is taken at
every 64th order statistic, then in full only over the spans where the
largest KS gap can lie, one block at a time, so the sample and its
sorted copy are the only arrays of its size.
Randomness is counter-based: the sample index alone determines the
stream position, and chunks run in index order on the calling thread,
so the worker count never changes the output.  A summary hands its
histogram to the command line as ``rows()``, which writes every CSV
through one writer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from . import hypgeom, modmap

__all__ = [
    "LAWS",
    "CURVES",
    "McConfig",
    "EmpiricalSummary",
    "run_law",
]

LAWS = ("crossratio_full", "quad_cr", "length", "star", "modulus", "teich")

_CHUNK = 1 << 14
_ADVANCE_PER_CHUNK = 1 << 20
_BINS = 200
_HIST_COLUMNS = ("bin_left", "bin_right", "count", "density")
# KS scoring takes F at every _KS_STRIDE-th order statistic, then in full
# only over the spans whose gap bound is within _KS_SLACK of the best gap
_KS_STRIDE = 64
_KS_SLACK = 1e-9

# The laws read through the modulus map; their curves take the map's
# table as an optional second argument (None: the default table).
_MAP_LAWS = ("modulus", "teich")

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
    "modulus": (modmap.modulus_pdf, modmap.modulus_cdf),
    "teich": (modmap.teich_pdf, modmap.teich_cdf),
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
        # Philox takes a 128-bit key; None would draw from OS entropy
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
    bg = np.random.Philox(key=seed)
    bg.advance(chunk_index * _ADVANCE_PER_CHUNK)
    return np.random.Generator(bg)


def _half_angle_tangents(rng: np.random.Generator, shape) -> np.ndarray:
    """tan(th/2) of uniform angles th in [0, 2 pi), drawn as ``shape``.

    The Cayley map exp(i th) -> tan(th/2), a Moebius map, carries uniform
    circle points to standard Cauchy draws on the real line.  The half
    angle U pi and the tangent run in place, bit for bit
    ``np.tan(0.5 * (U * (2 pi)))``: fl(2 pi) = 2 fl(pi), and scaling by
    2 or 0.5 is exact.
    """
    th = rng.random(shape)
    th *= math.pi
    return np.tan(th, out=th)


def _circle_cross_ratio(t: np.ndarray) -> np.ndarray:
    """(t_a - t_c)(t_b - t_d) / ((t_a - t_b)(t_c - t_d)) of each row of t.

    Cross ratios are Moebius-invariant, so on the half-angle tangents of
    four circle points this is the points' own: with
    t_a - t_c = sin((a - c)/2) / (cos(a/2) cos(c/2)) the four cosines
    cancel from the half-angle sine form.  t is consumed.
    """
    a, b, c, d = t.T
    ac = a - c
    a -= b
    b -= d
    c -= d
    ac *= b  # (t_a - t_c)(t_b - t_d)
    a *= c  # (t_a - t_b)(t_c - t_d)
    ac /= a
    return ac


def _orbit_max(cr: np.ndarray) -> np.ndarray:
    """The canonical representative of each cross ratio: the largest of
    its six orbit images, >= 2.  Five pairwise maxima run in place, with
    no stacked copy of the images, and give ``np.max`` over the stack
    bit for bit, nan and +-inf included.  cr is consumed.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        best, *rest = hypgeom._orbit_images(cr)
        for image in rest:
            np.maximum(best, image, out=best)
    return best


def _sample_chunk(law: str, seed: int, chunk_index: int, count: int,
                  table: modmap.CrMapTable | None) -> np.ndarray:
    rng = _chunk_rng(seed, chunk_index)
    if law == "star":
        return _half_angle_tangents(rng, count)
    if law in ("crossratio_full", "quad_cr"):
        cr = _circle_cross_ratio(_half_angle_tangents(rng, (count, 4)))
        return cr if law == "crossratio_full" else _orbit_max(cr)
    q = cf.sample_quad_cr_values(count, rng)
    if law == "length":
        return cf.perpendicular_length(q)
    m = modmap.modulus_of_cr(q, table)
    if law == "modulus":
        return m
    return np.log(m)  # teich


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
    Where -0.0 and 0.0 tie, the sign read is the sorted copy's, while
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


def _summary(values: np.ndarray, law: str, table: modmap.CrMapTable | None
             ) -> tuple[float, np.ndarray, np.ndarray, dict]:
    """KS distance, histogram counts and edges, and stats of one sample.

    Every order statistic comes from one sorted copy xs, and each number
    equals its plain numpy definition bit for bit: the largest KS gap
    against two arange grids over n, taken only over the spans of xs
    where it can lie (``_ks_distance``),
    ``np.histogram`` of the sample clipped to the law's range (bin i is
    [e_i, e_i+1), the last bin closed, nan dropped), ``np.median``,
    ``np.quantile`` (``_sorted_quantile``) and the mean of the clip
    mask.  The mean and sd read the unsorted values, whose summation
    order they depend on, after xs is freed, so the sd's sample-sized
    temporary never meets it.
    """
    n = len(values)
    xs = np.sort(values)
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
    del xs
    if law in ("length", "teich", "modulus"):
        out["mean"] = float(values.mean())
    if law in ("length", "teich"):
        out["sd"] = float(values.std())
    return ks, counts, edges, out


def run_law(cfg: McConfig, table: modmap.CrMapTable | None = None) -> EmpiricalSummary:
    """Sample one law per the config and summarize.

    Chunks of 2^14 samples each own a fixed slice of the Philox counter
    space and are drawn in index order on the calling thread, so the
    output is a function of (seed, n) only; ``cfg.workers`` is accepted
    and changes nothing.  The modulus-map laws pass ``table`` to
    ``modmap`` as it is, where None means the default table.  Each chunk
    is written into one preallocated sample, and the summary reads one
    sorted copy of it (see ``_summary``), so run_law's peak memory is
    two arrays of the sample's size plus block-sized scratch.
    """
    n = cfg.n_samples
    values = np.empty(n)
    for c, start in enumerate(range(0, n, _CHUNK)):
        values[start:start + _CHUNK] = _sample_chunk(
            cfg.law, cfg.seed, c, min(_CHUNK, n - start), table)

    ks, counts, edges, stats = _summary(values, cfg.law, table)
    return EmpiricalSummary(
        law=cfg.law, n=n, seed=cfg.seed, bin_edges=edges, counts=counts,
        ks_distance=ks, stats=stats)
