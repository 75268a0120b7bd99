"""One measured repeat of a benchmark task, in a fresh interpreter.

Usage: python3 perfbench/child.py TASK PARAMS_JSON

The parent (run.py) starts one of these per repeat, so the package's
lazily built module state never carries work from one repeat to the
next.  The child writes one JSON object per line to stdout:

  {"ready": true}                  after import and warm-up (set-up)
  {"setup_kernel_s": SECONDS}      the reference kernel, right after set-up
  {"op": NAME, "s": SECONDS, "kernel_s": [BEFORE, ..., AFTER], ...}
                                   after each operation, with the kernel
                                   timed just before and after it, and
                                   inside long solver calls (calib.py)
  {"done": true}                   at the end

Timed regions cover the call into the package only; input generation
and output checks run outside them.  With "trace" set, spans are
recorded around calls into each layer and written to params["spans"].
"""
from __future__ import annotations

import io
import json
import math
import os
import sys
import time
from contextlib import nullcontext, redirect_stdout
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

KS_MAX = 0.005
TANGENCY_MAX = 1e-10
WRONSKIAN_MAX = 1e-9
CR1_TOL = 1e-6


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def setup() -> SimpleNamespace:
    """Import every layer and warm the lazy defaults a user pays for.

    The modulus table is not warmed: every modulus-side command builds
    it, so it is measured as work, not set-up.
    """
    import numpy as np

    from punctorus import cli, closedform, hypgeom, lame, mc, modmap, torusgroup

    closedform.sample_quad_cr_values(1, np.random.default_rng(0))
    return SimpleNamespace(np=np, cli=cli, closedform=closedform, hypgeom=hypgeom, lame=lame,
                           mc=mc, modmap=modmap, torusgroup=torusgroup)


def _size(args, kwargs) -> int:
    x = args[0] if args else next(iter(kwargs.values()), 0)
    return int(getattr(x, "size", 1))


def install_tracing(tr: Tracer, m: SimpleNamespace) -> None:
    def solve(args, kwargs):
        bracket = kwargs.get("bracket", args[1] if len(args) > 1 else None)

        def after(sol):
            return {"warm_hit": bracket is not None and tuple(sol.bracket) == tuple(bracket)}
        return {"tau": args[0], "warm": bracket is not None, "_after": after}

    def sized(args, kwargs):
        return {"n": _size(args, kwargs)}

    def law(args, kwargs):
        cfg = args[0]
        return {"law": cfg.law, "n": cfg.n_samples, "workers": cfg.workers}

    tr.wrap(m.lame, "solve_accessory", solve)
    tr.wrap(m.lame, "integrate_lame")
    tr.wrap(m.modmap, "build_cr_table")
    tr.wrap(m.modmap, "summary_stats")
    for name in ("modulus_of_cr", "cr_of_modulus", "modulus_pdf", "teich_pdf"):
        tr.wrap(m.modmap, name, sized)
    tr.wrap(m.mc, "run_law", law)
    for name in ("sample_torus", "rectangular_generators", "commutator", "tangency_vertices"):
        tr.wrap(m.torusgroup, name)
    tr.wrap(m.hypgeom, "cross_ratio")
    tr.wrap(m.cli, "main")


def install_sampling(sampler, m: SimpleNamespace) -> None:
    """Sample the reference kernel about once a second inside long calls.

    The table build and a failing cold solve run for many seconds in one
    call; ``solve_accessory`` and ``circle_invariants`` are the public
    functions they keep calling, through the module's globals.  Only
    untraced runs sample inside calls.
    """
    for name in ("solve_accessory", "circle_invariants"):
        fn = getattr(m.lame, name)

        def hooked(*args, _fn=fn, **kwargs):
            sampler.maybe()
            return _fn(*args, **kwargs)

        setattr(m.lame, name, hooked)


class Ops:
    """Runs, times, checks and reports one operation at a time."""

    def __init__(self, tr: Tracer | None, sampler):
        self.tr, self.sampler = tr, sampler

    def run(self, name: str, fn, *args, **kwargs):
        """Time fn(*args) and return (result, report).

        A raise is caught and reported by exception type; the caller adds
        checks to the report and then emits it.
        """
        rep = {"op": name, "ok": True, "error": None, "checks": {}, "values": {}}
        ctx = self.tr.span("bench." + name) if self.tr else nullcontext()
        if self.tr:
            self.tr.op = name
        result = None
        smp = self.sampler
        smp.reset()
        smp.take()
        before = smp.spent_s
        t0 = time.perf_counter()
        try:
            with ctx:
                result = fn(*args, **kwargs)
        except Exception as exc:  # reported by type; a crash of the child is caught by the parent
            rep["ok"] = False
            rep["error"] = type(exc).__name__
            rep["message"] = str(exc)[:300]
        # kernel samples taken inside the call are not the operation's time
        rep["s"] = time.perf_counter() - t0 - (smp.spent_s - before)
        smp.take()
        rep["kernel_s"] = list(smp.samples)
        return result, rep


def check(rep: dict, name: str, passed) -> None:
    passed = bool(passed)
    rep["checks"][name] = passed
    if not passed:
        rep["ok"] = False


def check_solve(rep: dict, sol) -> None:
    check(rep, "tangency_residual", abs(sol.diagnostics["tangency_residual"]) < TANGENCY_MAX)
    check(rep, "wronskian_drift", sol.diagnostics["wronskian_drift"] < WRONSKIAN_MAX)


def sample_law(ops: Ops, m: SimpleNamespace, name: str, cfg, table=None) -> None:
    """One timed ``mc.run_law``, with the KS distance checked."""
    s, rep = ops.run(name, m.mc.run_law, cfg, table)
    if s is not None:
        rep["values"]["ks"] = s.ks_distance
        check(rep, "ks", s.ks_distance < KS_MAX)
    emit(rep)


# ---------------------------------------------------------------------------
# tasks


def task_setup(p, m, ops):
    pass


def task_build(p, m, ops):
    """Build the table, check every node solve, write it to CSV, check
    the round trip and compare the map with direct solves off the nodes."""
    lame, modmap = m.lame, m.modmap
    seen = []
    solve = lame.solve_accessory

    def observe(*args, **kwargs):
        sol = solve(*args, **kwargs)
        seen.append(sol)
        return sol

    lame.solve_accessory = observe
    try:
        table, rep = ops.run("table_build", modmap.build_cr_table, **p.get("build_kw", {}))
    finally:
        lame.solve_accessory = solve
    if table is not None:
        check(rep, "node_tangency", all(abs(s.diagnostics["tangency_residual"]) < TANGENCY_MAX
                                            for s in seen))
        check(rep, "node_wronskian", all(s.diagnostics["wronskian_drift"] < WRONSKIAN_MAX
                                             for s in seen))
        cr1 = modmap.cr_of_modulus(1.0, table)
        check(rep, "cr_of_1_is_2", abs(cr1 - 2.0) < CR1_TOL)
        table.to_csv(p["csv"])
        back = modmap.CrMapTable.from_csv(p["csv"])
        check(rep, "csv_round_trip",
                  m.np.array_equal(back.ms, table.ms) and m.np.array_equal(back.crs, table.crs)
                  and back.records == sorted(table.records, key=lambda r: r["m"])
                  and back.a_estimate == table.a_estimate and back.c_hat == table.c_hat)
        rep["values"]["nodes"] = len(table.ms)
    emit(rep)

    for mm in p.get("ref_ms", []):
        sol, rep = ops.run("ref_solve", lame.solve_accessory, 1.0 / mm)
        if sol is not None:
            check_solve(rep, sol)
            if table is not None:
                err = abs(modmap.cr_of_modulus(mm, table) - sol.cross_ratio) / sol.cross_ratio
                rep["values"]["rel_err"] = err
                check(rep, "cr_map_rel_err", err < p["cr_map_rel_max"])
        emit(rep)


def task_reads(p, m, ops):
    """Reads of a built table, passed explicitly after loading its CSV."""
    np, modmap, mc = m.np, m.modmap, m.mc
    table = modmap.CrMapTable.from_csv(p["csv"])
    n = p["n"]

    stats, rep = ops.run("teich_stats", modmap.summary_stats, table)
    if stats is not None:
        mean, median, sd = stats
        check(rep, "finite", all(math.isfinite(v) for v in stats))
        check(rep, "positive", mean > 0 and median > 0 and sd > 0)
    emit(rep)

    for law in ("teich", "modulus"):
        sample_law(ops, m, "sample_" + law,
                   mc.McConfig(n_samples=n, seed=p["law_seed"], workers=1, law=law), table)

    rng = np.random.default_rng(p["input_seed"])
    q = 2.0 * np.exp(rng.uniform(0.0, math.log(1000.0), p["n_inverse"]))
    mods = np.exp(rng.uniform(math.log(0.02), math.log(100.0), n))
    mpts = rng.uniform(1.0, 100.0, n)
    dpts = rng.uniform(0.0, 5.0, n)

    out, rep = ops.run("modulus_of_cr", modmap.modulus_of_cr, q, table)
    if out is not None:
        back = np.asarray(modmap.cr_of_modulus(out, table))
        check(rep, "inverse_round_trip", np.all(np.abs(back - q) <= 1e-9 * q))
    emit(rep)
    out, rep = ops.run("cr_of_modulus", modmap.cr_of_modulus, mods, table)
    if out is not None:
        check(rep, "range", np.all(np.isfinite(out)) and np.all(out > 1.0))
    emit(rep)
    for name, pts in (("modulus_pdf", mpts), ("teich_pdf", dpts)):
        out, rep = ops.run(name, getattr(modmap, name), pts, table)
        if out is not None:
            check(rep, "density", np.all(np.isfinite(out)) and np.all(out >= 0.0))
        emit(rep)


def task_cold(p, m, ops):
    """Cold accessory solves, one operation per tau, failures included."""
    for tau in p["taus"]:
        sol, rep = ops.run("cold_solve", m.lame.solve_accessory, tau)
        rep["values"]["tau"] = tau
        if sol is not None:
            check_solve(rep, sol)
        emit(rep)


def torus_loop(m, ops, tr, count: int, seed: int):
    """Random tori plus the rectangular-generator identities.

    For each sampled torus, r = sqrt(Q - 1) with Q its quadrilateral
    cross ratio; the commutator of the rectangular pair must be
    parabolic (trace -2) and the four tangency vertices must have cross
    ratio 1 + r^2 = Q.
    """
    tg, hg = m.torusgroup, m.hypgeom
    rng = m.np.random.default_rng(seed)
    worst = [0.0, 0.0]

    def loop():
        for _ in range(count):
            ts = tg.sample_torus(rng)
            with tr.span("torus.identity") if tr else nullcontext():
                q = tg.angle_relation(ts.x_sigma, ts.y_sigma).quad_cr
                pair = tg.rectangular_generators(math.sqrt(q - 1.0))
                c = tg.commutator(pair.A, pair.B)
                cr = complex(hg.cross_ratio(*tg.tangency_vertices(pair)).value)
            worst[0] = max(worst[0], abs(complex(c.a + c.d) + 2.0))
            worst[1] = max(worst[1], abs(cr - q) / q)

    _, rep = ops.run("torus_sample", loop)
    rep["values"].update(trace_err=worst[0], cr_err=worst[1], count=count)
    check(rep, "parabolic_commutator", worst[0] < 1e-6)
    check(rep, "vertex_cross_ratio", worst[1] < 1e-9)
    emit(rep)


def task_laws(p, m, ops):
    """Table-free laws and the torus identity loop."""
    for law in p["laws"]:
        sample_law(ops, m, "run_law." + law,
                   m.mc.McConfig(n_samples=p["n"], seed=p["law_seed"], workers=1, law=law))
    torus_loop(m, ops, ops.tr, p["torus_n"], p["torus_seed"])
    refs = [m.closedform.quad_cr_pdf(x) for x in p.get("cli_at", [])]
    emit({"cli_ref": refs})


def _repeat(ops, name, k, fn, *args):
    """k timed calls of fn, reported as one operation per call."""
    for _ in range(k):
        out, rep = ops.run(name, fn, *args)
        emit(rep)
    return out


def task_probe(p, m, ops):
    """Fixed layer probes, the same in every workload's traced run.

    They give every per-layer metric a measured value even on a
    workload that does not exercise that layer.
    """
    np, cf, lame, modmap, mc = m.np, m.closedform, m.lame, m.modmap, m.mc
    tr = ops.tr
    n = p["n"]
    rng = np.random.default_rng(12345)
    u = rng.random(n)
    qs = 2.0 * np.exp(rng.uniform(0.0, math.log(1e4), n))
    rs = np.tan(np.pi * (rng.random(n) - 0.5))

    def timed_span(name, fn, *args):
        with tr.span(name):
            return fn(*args)

    inv = _repeat(ops, "probe.inverse_build", 3, timed_span, "closedform.inverse_build",
                  cf.QuadCrInverseCdf)
    for label, fn, arg in (("inverse_cdf", inv, u), ("quad_cr_cdf", cf.quad_cr_cdf, qs),
                           ("crossratio_cdf", cf.crossratio_cdf, rs)):
        _repeat(ops, "probe." + label, 3, timed_span, "closedform." + label, fn, arg)

    for tau, lam in p["integrate_pairs"]:
        for _ in range(3):
            data, rep = ops.run("probe.integrate", lame.integrate_lame, tau, lam)
            if data is not None:
                check(rep, "wronskian_drift", data.wronskian_drift < WRONSKIAN_MAX)
            emit(rep)

    for tau in p["cold_taus"]:
        sol, rep = ops.run("probe.cold_solve", lame.solve_accessory, tau)
        if sol is not None:
            check_solve(rep, sol)
        emit(rep)

    table, rep = ops.run("probe.table_build", modmap.build_cr_table, n=p["table_n"])
    emit(rep)
    if table is not None:
        _, rep = ops.run("probe.teich_stats", modmap.summary_stats, table)
        emit(rep)
        _, rep = ops.run("probe.cr_of_modulus", modmap.cr_of_modulus,
                         np.exp(rng.uniform(math.log(0.02), math.log(100.0), n)), table)
        emit(rep)
    for law in mc.LAWS:
        sample_law(ops, m, "probe.run_law." + law,
                   mc.McConfig(n_samples=n, seed=777, workers=1, law=law),
                   table if law in ("modulus", "teich") else None)
    for _ in range(2):
        for workers in (1, 2):
            cfg = mc.McConfig(n_samples=n, seed=778, workers=workers, law="quad_cr")
            _, rep = ops.run(f"probe.workers{workers}", mc.run_law, cfg)
            emit(rep)

    torus_loop(m, ops, tr, p["torus_n"], 4242)

    def eval_cli():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = m.cli.main(["pdf", "--law", "quad_cr", "--at", "2"])
        return code, buf.getvalue()

    for _ in range(5):
        out, rep = ops.run("probe.cli_eval", eval_cli)
        if out is not None:
            check(rep, "exit_code", out[0] == 0)
            check(rep, "value", float(out[1]) == cf.quad_cr_pdf(2.0))
        emit(rep)


TASKS = {"setup": task_setup, "build": task_build, "reads": task_reads,
         "cold": task_cold, "laws": task_laws, "probe": task_probe}


def main() -> int:
    task, params = sys.argv[1], json.loads(sys.argv[2])
    if task == "cli_import":
        # a fresh interpreter: nothing of numpy or the package is imported yet
        t0 = time.perf_counter()
        import punctorus.cli  # noqa: F401
        wall = time.perf_counter() - t0
        import calib
        emit({"op": "cli_import", "ok": True, "error": None, "checks": {}, "values": {},
              "s": wall, "kernel_s": [calib.kernel_s()]})
        emit({"done": True})
        return 0
    m = setup()
    emit({"ready": True})
    import calib
    emit({"setup_kernel_s": calib.kernel_s(reps=5)})
    tr = Tracer() if params.get("trace") else None
    if tr:
        install_tracing(tr, m)
    sampler = calib.Sampler()
    if not tr:  # spans would count the in-call samples as the layers' time
        install_sampling(sampler, m)
    TASKS[task](params, m, Ops(tr, sampler))
    if tr:
        tr.dump(params["spans"])
    emit({"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
