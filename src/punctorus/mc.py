"""Monte Carlo validation of every closed-form law in the package.

``CURVES`` holds each law's density and CDF, the one copy that the
command line and the Kolmogorov-Smirnov scoring here both read.
Samplers draw i.i.d. uniform points on the circle, or push the
quadrilateral law's inverse-CDF draws through the relevant change of
variables, each written once elsewhere: the substitution orbit in
hypgeom, the perpendicular length in closedform, the modulus laws
through modmap's inverse of the modulus map.  They accumulate
histograms and score the empirical CDF against the closed forms.
Randomness is counter-based: the sample index alone determines the
stream position, and chunks run in index order on the calling thread,
so the worker count never changes the output.  A summary hands its
histogram to the command line as ``rows()``, which writes every CSV
through one writer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import closedform as cf
from . import hypgeom, modmap

__all__ = [
    "LAWS",
    "CURVES",
    "PAIRING_PROBABILITY",
    "McConfig",
    "EmpiricalSummary",
    "run_law",
]

LAWS = ("crossratio_full", "quad_cr", "length", "star", "modulus", "teich")

# Sides of the ideal quadrilateral admit three perfect matchings and only
# the opposite-side one yields a once-punctured torus, so a uniformly
# random pairing produces one exactly a third of the time.  Exact
# arithmetic, no simulation involved.
PAIRING_PROBABILITY = Fraction(1, 3)

_CHUNK = 1 << 14
_ADVANCE_PER_CHUNK = 1 << 20
_BINS = 200
_HIST_COLUMNS = ("bin_left", "bin_right", "count", "density")

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


def _modulus_cdf(m, table=None):
    """F_Q(CR(m)) from the square torus up, 0 below it."""
    m, scalar = cf._prep(m)
    out = cf.quad_cr_cdf(modmap.cr_of_modulus(np.maximum(m, 1.0), table))
    return cf._ret(np.where(m < 1.0, 0.0, out), scalar)


def _teich_cdf(d, table=None):
    d, scalar = cf._prep(d)
    with np.errstate(over="ignore"):
        e = np.exp(d)
    return cf._ret(np.where(d < 0.0, 0.0, _modulus_cdf(e, table)), scalar)


# Density and CDF of every law, keyed by law name.  Each takes an array;
# the modulus-map laws also take an optional table.  The keys are the
# sampled LAWS plus length_dual, the full-line length law.
CURVES = {
    "crossratio_full": (cf.crossratio_pdf, cf.crossratio_cdf),
    "quad_cr": (cf.quad_cr_pdf, cf.quad_cr_cdf),
    "length": (cf.length_pdf, cf.length_branch_cdf),
    "length_dual": (cf.length_pdf_dual, cf.length_cdf),
    "star": (cf.star_pdf, cf.star_cdf),
    "modulus": (modmap.modulus_pdf, _modulus_cdf),
    "teich": (modmap.teich_pdf, _teich_cdf),
}


@dataclass(frozen=True)
class McConfig:
    """One sampling request; identical configs give identical outputs."""

    n_samples: int
    seed: int
    workers: int = 1
    law: str = "crossratio_full"

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
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


def _full_cr_from_angles(th: np.ndarray) -> np.ndarray:
    """Cross ratio of four unit-circle points via the half-angle form.

    For z_j = exp(i th_j) each difference z_a - z_b carries a common
    phase times 2 sin((th_a - th_b)/2); the phases cancel in the cross
    ratio, leaving a manifestly real expression.
    """
    num = np.sin(0.5 * (th[:, 0] - th[:, 2])) * np.sin(0.5 * (th[:, 1] - th[:, 3]))
    den = np.sin(0.5 * (th[:, 0] - th[:, 1])) * np.sin(0.5 * (th[:, 2] - th[:, 3]))
    return num / den


def _sample_chunk(law: str, seed: int, chunk_index: int, count: int,
                  table: modmap.CrMapTable | None) -> np.ndarray:
    rng = _chunk_rng(seed, chunk_index)
    if law == "crossratio_full":
        th = rng.random((count, 4)) * (2.0 * math.pi)
        return _full_cr_from_angles(th)
    if law == "quad_cr":
        th = rng.random((count, 4)) * (2.0 * math.pi)
        # the canonical representative: the orbit's largest value, >= 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.max(hypgeom._orbit_images(_full_cr_from_angles(th)), axis=0)
    if law == "star":
        th = rng.random(count) * (2.0 * math.pi)
        return np.tan(0.5 * th)
    q = cf.sample_quad_cr_values(count, rng)
    if law == "length":
        return cf.perpendicular_length(q)
    m = modmap.modulus_of_cr(q, table)
    if law == "modulus":
        return m
    return np.log(m)  # teich


def _ks_distance(values: np.ndarray, law: str, table: modmap.CrMapTable | None) -> float:
    xs = np.sort(values)
    curve = CURVES[law][1]
    f = cf._blockwise((lambda x: curve(x, table)) if law in _MAP_LAWS else curve, xs)
    n = len(xs)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return max(upper.max(), lower.max()).item()


def _stats(values: np.ndarray, law: str, clipped_fraction: float) -> dict:
    out: dict = {"median": float(np.median(values)),
                 "clipped_fraction": clipped_fraction}
    if law in ("length", "teich", "modulus"):
        out["mean"] = float(values.mean())
    if law in ("length", "teich"):
        out["sd"] = float(values.std())
    if law == "star":
        q1, q3 = np.quantile(values, [0.25, 0.75])
        out["iqr"] = float(q3 - q1)
    return out


def run_law(cfg: McConfig, table: modmap.CrMapTable | None = None) -> EmpiricalSummary:
    """Sample one law per the config and summarize.

    Chunks of 2^14 samples each own a fixed slice of the Philox counter
    space and are drawn in index order on the calling thread, so the
    output is a function of (seed, n) only; ``cfg.workers`` is accepted
    and changes nothing.  The modulus-map laws read ``table``, or the
    default table when it is None.
    """
    n = cfg.n_samples
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    if cfg.law in _MAP_LAWS and table is None:
        table = modmap.default_table()
    values = np.concatenate([
        _sample_chunk(cfg.law, cfg.seed, c, min(_CHUNK, n - c * _CHUNK), table)
        for c in range(n_chunks)])

    ks = _ks_distance(values, cfg.law, table)
    lo, hi = _HIST_RANGE[cfg.law]
    clipped = float(np.mean((values < lo) | (values > hi)))
    counts, edges = np.histogram(np.clip(values, lo, hi), bins=_BINS, range=(lo, hi))
    return EmpiricalSummary(
        law=cfg.law, n=n, seed=cfg.seed, bin_edges=edges, counts=counts,
        ks_distance=ks, stats=_stats(values, cfg.law, clipped))
