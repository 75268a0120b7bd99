"""Monte Carlo validation of every closed-form law in the package.

Samplers draw i.i.d. uniform points on the circle (or push the
quadrilateral law through the relevant change of variables; the modulus
laws use modmap's inverse of the modulus map), accumulate histograms,
and score the empirical CDF against the closed forms with the
Kolmogorov-Smirnov distance.  Randomness is counter-based: the
sample index alone determines the stream position, so the worker count
can never change the output.
"""
from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import modmap
from .closedform import (
    LENGTH_THRESHOLD,
    _get_default_inverse,
    crossratio_cdf,
    quad_cr_cdf,
    star_cdf,
)

__all__ = [
    "LAWS",
    "PAIRING_PROBABILITY",
    "McConfig",
    "EmpiricalSummary",
    "run_law",
    "sample_crossratio",
    "sample_quad_cr",
    "sample_star",
    "sample_length",
    "sample_modulus",
    "sample_teich",
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

_HIST_RANGE = {
    "crossratio_full": (-5.0, 5.0),
    "quad_cr": (2.0, 25.0),
    "length": (0.0, LENGTH_THRESHOLD),
    "star": (-8.0, 8.0),
    "modulus": (1.0, 8.0),
    "teich": (0.0, 4.0),
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

    def csv_text(self, precision: int = 17) -> str:
        """The histogram as CSV, floats to the given significant digits."""
        fmt = f".{precision}g"
        widths = np.diff(self.bin_edges)
        dens = self.counts / (self.n * widths)
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(("bin_left", "bin_right", "count", "density"))
        for left, right, cnt, d in zip(self.bin_edges[:-1], self.bin_edges[1:],
                                       self.counts, dens):
            w.writerow((format(left, fmt), format(right, fmt), int(cnt), format(d, fmt)))
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    def to_json_dict(self) -> dict:
        return {"law": self.law, "n": self.n, "seed": self.seed,
                "ks": self.ks_distance, "stats": self.stats}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


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


def _canonicalize(lam: np.ndarray) -> np.ndarray:
    """Largest value of the six-element substitution orbit, always >= 2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        orbit = np.stack([lam, 1.0 - lam, 1.0 / lam, lam / (lam - 1.0),
                          1.0 / (1.0 - lam), (lam - 1.0) / lam])
    return orbit.max(axis=0)


def _sample_chunk(law: str, seed: int, chunk_index: int, count: int,
                  table: modmap.CrMapTable | None) -> np.ndarray:
    rng = _chunk_rng(seed, chunk_index)
    if law == "crossratio_full":
        th = rng.random((count, 4)) * (2.0 * math.pi)
        return _full_cr_from_angles(th)
    if law == "quad_cr":
        th = rng.random((count, 4)) * (2.0 * math.pi)
        return _canonicalize(_full_cr_from_angles(th))
    if law == "star":
        th = rng.random(count) * (2.0 * math.pi)
        return np.tan(0.5 * th)
    u = rng.random(count)
    q = np.asarray(_get_default_inverse()(u))
    if law == "length":
        return 2.0 * np.arctanh(1.0 / np.sqrt(np.maximum(q, 2.0)))
    m = modmap.modulus_of_cr(q, table)
    if law == "modulus":
        return m
    return np.log(m)  # teich


def _law_cdf(law: str, xs: np.ndarray, table: modmap.CrMapTable | None) -> np.ndarray:
    if law == "crossratio_full":
        return np.asarray(crossratio_cdf(xs))
    if law == "quad_cr":
        return np.asarray(quad_cr_cdf(np.maximum(xs, 2.0)))
    if law == "star":
        return np.asarray(star_cdf(xs))
    if law == "length":
        q = 1.0 / np.tanh(0.5 * xs) ** 2
        return 1.0 - np.asarray(quad_cr_cdf(np.maximum(q, 2.0)))
    t = table if table is not None else modmap.default_table()
    m = xs if law == "modulus" else np.exp(xs)
    return np.asarray(quad_cr_cdf(np.maximum(
        np.asarray(modmap.cr_of_modulus(m, t)), 2.0)))


def _ks_distance(values: np.ndarray, law: str, table: modmap.CrMapTable | None) -> float:
    xs = np.sort(values)
    f = _law_cdf(law, xs, table)
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
    space; workers grab whole chunks and results concatenate in index
    order, so output is a function of (seed, n) only.
    """
    n = cfg.n_samples
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    if cfg.law in ("modulus", "teich") and table is None:
        table = modmap.default_table()

    def one(c: int) -> np.ndarray:
        count = min(_CHUNK, n - c * _CHUNK)
        return _sample_chunk(cfg.law, cfg.seed, c, count, table)

    if cfg.workers == 1 or n_chunks == 1:
        parts = [one(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(one, range(n_chunks)))
    values = np.concatenate(parts)

    ks = _ks_distance(values, cfg.law, table)
    lo, hi = _HIST_RANGE[cfg.law]
    clipped = float(np.mean((values < lo) | (values > hi)))
    counts, edges = np.histogram(np.clip(values, lo, hi), bins=_BINS, range=(lo, hi))
    return EmpiricalSummary(
        law=cfg.law, n=n, seed=cfg.seed, bin_edges=edges, counts=counts,
        ks_distance=ks, stats=_stats(values, cfg.law, clipped))


def sample_crossratio(cfg: McConfig) -> EmpiricalSummary:
    """Cross ratios of i.i.d. uniform quadruples on the circle."""
    return run_law(replace(cfg, law="crossratio_full"))


def sample_quad_cr(cfg: McConfig) -> EmpiricalSummary:
    """Canonical (orbit-maximal) cross ratios, supported on [2, inf)."""
    return run_law(replace(cfg, law="quad_cr"))


def sample_star(cfg: McConfig) -> EmpiricalSummary:
    """The one-free-point pencil law tan(theta/2), standard Cauchy."""
    return run_law(replace(cfg, law="star"))


def sample_length(cfg: McConfig) -> EmpiricalSummary:
    """Shortest-geodesic lengths, the image of the quadrilateral law."""
    return run_law(replace(cfg, law="length"))


def sample_modulus(cfg: McConfig, table: modmap.CrMapTable | None = None) -> EmpiricalSummary:
    """Moduli of random ideal quadrilaterals via the inverse map."""
    return run_law(replace(cfg, law="modulus"), table)


def sample_teich(cfg: McConfig, table: modmap.CrMapTable | None = None) -> EmpiricalSummary:
    """Log-moduli (distances to the square torus)."""
    return run_law(replace(cfg, law="teich"), table)
