"""Per-layer metrics computed from the spans of a traced run.

Each metric is computed from the workload's own spans when the workload
exercises that layer, and otherwise from the spans of the fixed layer
probe, so every traced run reports every metric.  ``compute`` returns
None for a metric a set of spans cannot give.
"""
from __future__ import annotations

import statistics

from tracer import duration, self_time

LAWS = ("crossratio_full", "quad_cr", "length", "star", "modulus", "teich")


def _median(xs, scale=1.0):
    xs = list(xs)
    return statistics.median(xs) * scale if xs else None


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _outermost(spans, name, by_key):
    """Spans of this name with no ancestor of the same name."""
    out = []
    for s in _named(spans, name):
        p = s["parent_key"]
        while p is not None and by_key[p]["name"] != name:
            p = by_key[p]["parent_key"]
        if p is None:
            out.append(s)
    return out


def compute(spans: list[dict]) -> dict:
    by_key = {s["key"]: s for s in spans}
    m: dict = {}
    m["lame.integrate_ms"] = _median(map(duration, _named(spans, "lame.integrate_lame")), 1e3)

    solves = _named(spans, "lame.solve_accessory")
    builds = _named(spans, "modmap.build_cr_table")
    if builds:
        b = builds[0]
        kids = [s for s in solves if s["parent_key"] == b["key"]]
        hits = sum(1 for s in kids if s["attrs"].get("warm_hit"))
        m["lame.solve_calls"] = len(kids)
        m["lame.warm_hits"] = hits
        m["lame.warm_hit_ratio"] = hits / len(kids) if kids else None
        m["lame.solve_warm_ms"] = _median((duration(s) for s in kids if s["attrs"]["warm"]), 1e3)
        m["modmap.build_self_s"] = self_time(b, spans)

    cold = [s for s in solves if not s["attrs"]["warm"]]
    m["lame.solve_cold_ms"] = _median((duration(s) for s in cold if s["err"] is None), 1e3)
    m["lame.fail_ms"] = _median((duration(s) for s in cold if s["err"] == "SolverFailure"), 1e3)
    m["lame.solve_failures"] = sum(1 for s in cold if s["err"]) if cold else None

    stats = _named(spans, "modmap.summary_stats")
    if stats:
        m["modmap.modulus_of_cr_calls"] = sum(
            1 for s in _named(spans, "modmap.modulus_of_cr") if s["parent_key"] == stats[0]["key"])
    inv = _outermost(spans, "modmap.modulus_of_cr", by_key)
    n_inv = sum(s["attrs"]["n"] for s in inv)
    m["modmap.modulus_of_cr_us"] = sum(map(duration, inv)) / n_inv * 1e6 if n_inv else None
    fwd = _outermost(spans, "modmap.cr_of_modulus", by_key)
    n_max = max((s["attrs"]["n"] for s in fwd), default=0)
    m["modmap.cr_of_modulus_ms"] = _median(
        (duration(s) for s in fwd if s["attrs"]["n"] == n_max and n_max > 1), 1e3)

    runs = [s for s in _named(spans, "mc.run_law") if not (s["op"] or "").startswith("probe.workers")]
    for law in LAWS:
        m[f"mc.run_law.{law}_s"] = _median(
            duration(s) for s in runs if s["attrs"]["law"] == law and s["attrs"]["workers"] == 1)
    w1 = _median(duration(s) for s in _named(spans, "mc.run_law") if s["op"] == "probe.workers1")
    w2 = _median(duration(s) for s in _named(spans, "mc.run_law") if s["op"] == "probe.workers2")
    m["mc.workers2_ratio"] = w2 / w1 if w1 and w2 else None

    for part in ("inverse_build", "inverse_cdf", "quad_cr_cdf", "crossratio_cdf"):
        m[f"closedform.{part}_ms"] = _median(map(duration, _named(spans, "closedform." + part)), 1e3)
    m["torusgroup.sample_torus_us"] = _median(
        map(duration, _named(spans, "torusgroup.sample_torus")), 1e6)
    m["torusgroup.identity_us"] = _median(map(duration, _named(spans, "torus.identity")), 1e6)
    m["hypgeom.cross_ratio_us"] = _median(map(duration, _named(spans, "hypgeom.cross_ratio")), 1e6)
    m["cli.eval_ms"] = _median(map(duration, _named(spans, "cli.main")), 1e3)
    return m


def merge(workload: dict, probe: dict) -> tuple[dict, dict]:
    """Workload values where present, probe values elsewhere, and the
    source of each."""
    values, source = {}, {}
    for k in set(workload) | set(probe):
        if workload.get(k) is not None:
            values[k], source[k] = workload[k], "workload"
        elif probe.get(k) is not None:
            values[k], source[k] = probe[k], "probe"
    return values, source
