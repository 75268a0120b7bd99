"""The punctorus benchmark: one workload, one seed, one run.

Usage (from the repository root):

  python3 perfbench/run.py --workload modulus-table --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

Workloads: modulus-table, cold-solve, laws-mc (see perfbench/README.md).
Every measured repeat runs in a fresh interpreter (perfbench/child.py),
one at a time, each under a wall-clock cap.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The line before it holds the workload's named metrics, the
checks, the failures and the machine description.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("modulus-table", "cold-solve", "laws-mc")
TAU_MIN, TAU_MAX = 0.02, 50.0  # the solver's documented range
TYPED_ERRORS = ("SolverFailure", "BracketError", "ValueError")
KNOWN_FAILING_OPS = ("cold_solve", "probe.cold_solve")
RUN_BUDGET_S = 170.0
SETUP_CAP_S = 60.0
OP_CAP_S = 60.0
BUILD_CAP_S = 150.0
MAX_REPEATS = 20

SIZES = {
    "full": {"build_kw": {}, "ref_ms": 8, "cr_map_rel_max": 1e-4, "n": 10**6,
             "n_inverse": 2000, "read_repeats": 4, "law_repeats": 6, "cold": 24,
             "torus_n": 1500, "cli": 7, "min_setups": 3, "probe_table_n": 16,
             "probe_torus_n": 300},
    "smoke": {"build_kw": {"n": 16}, "ref_ms": 2, "cr_map_rel_max": 1e-2, "n": 10**6,
              "n_inverse": 200, "read_repeats": 1, "law_repeats": 1, "cold": 3,
              "torus_n": 100, "cli": 1, "min_setups": 1, "probe_table_n": 16,
              "probe_torus_n": 50},
}
TABLE_FREE_LAWS = ("crossratio_full", "quad_cr", "star", "length")
SAMPLE_OPS = ("sample_teich", "sample_modulus")
LOOKUP_OPS = ("modulus_of_cr", "cr_of_modulus", "modulus_pdf", "teich_pdf")
LAW_OPS = tuple("run_law." + law for law in TABLE_FREE_LAWS)
INTEGRATE_PAIRS = ((1.0, -0.02), (0.5, -0.27), (0.1, -0.52), (2.0, 0.07))
PROBE_COLD_TAUS = (0.5, 6.0)  # one that solves, one in the known-failing region

# the three end-to-end slots each workload fills from its named metrics
SLOT_NAMES = ("primary_s", "secondary_s", "tertiary_s")
SLOTS = {
    "modulus-table": ("table_build_s", "teich_stats_plus_sample_s", "map_lookup_s"),
    "cold-solve": ("cold_solve_s", "cold_solve_p50_s", "cold_solve_tail_s"),
    "laws-mc": ("law_sample_s", "torus_sample_s", "cli_pdf_at_s"),
}


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


def _subseed(seed: int, tag: str) -> int:
    return _rng(seed, tag).getrandbits(62)


def stratified_log(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform draw in each of k equal log-width strata of [lo, hi].

    Neighbouring strata are paired antithetically (offsets u and 1 - u),
    so a cost that grows with the draw sums to nearly the same total for
    every seed; each draw is still uniform in its stratum, so the set
    stays log-uniform over [lo, hi].
    """
    a, w = math.log(lo), (math.log(hi) - math.log(lo)) / k
    us = []
    while len(us) < k:
        u = rng.random()
        us += [u, 1.0 - u]
    return [min(max(math.exp(a + (i + us[i]) * w), lo), hi) for i in range(k)]


def op_time(op: dict, wall: bool = False) -> float:
    """An operation's time: kernel-normalized (see calib.py), or raw wall."""
    return op["s"] if wall else calib.normalized(op["s"], op["kernel_ref_s"])


def _sum(ops: list[dict], names, wall: bool) -> float:
    return sum(op_time(o, wall) for o in ops if o["op"] in names)


class ChildFailed(Exception):
    """A child crashed, hung past its cap, or the run ran out of time.

    ``ops`` holds what the child reported before it failed and
    ``stalled_s`` how long it went without reporting.
    """

    def __init__(self, message: str, ops: list[dict], stalled_s: float):
        super().__init__(message)
        self.ops, self.stalled_s = ops, stalled_s


class Bench:
    """One run: its output directory, children, operations and deadline."""

    def __init__(self, root: str, out: str, trace: bool, seconds: float, budget: float):
        self.root, self.out, self.trace, self.seconds = root, out, trace, seconds
        self.deadline = time.perf_counter() + budget
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.setups: list[dict] = []  # {"s": wall to ready, "kernel_s": kernel after}
        self.ops: list[dict] = []
        self.span_files: dict[str, list[str]] = {"workload": [], "probe": []}
        self.n_child = 0

    def child(self, task: str, params: dict, op_cap: float = OP_CAP_S,
              spans: str | None = None) -> dict:
        """Run one child to completion; returns its ops and other lines.

        A crash, a hang past op_cap between two reports, or the run
        budget running out raises ChildFailed; the ops reported so far
        are kept.  ``spans`` ("workload" or "probe") turns tracing on.
        """
        self.n_child += 1
        params = dict(params)
        if spans is not None:
            params["trace"] = True
            params["spans"] = os.path.join(self.out, f"spans-{self.n_child:03d}-{task}.json")
        errlog = os.path.join(self.out, f"stderr-{self.n_child:03d}-{task}.txt")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), task, json.dumps(params)]
        res = {"ops": [], "extra": [], "setup": {}, "last": time.perf_counter()}
        with open(errlog, "w") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err)
        try:
            failure = self._read(proc, res, op_cap)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        calib.smooth(res["ops"])
        if failure is None and proc.returncode != 0:
            failure = f"exit code {proc.returncode}"
        if failure is not None:
            raise ChildFailed(f"{task}: {failure} (see {os.path.relpath(errlog, self.root)})",
                              res["ops"], time.perf_counter() - res["last"])
        if "kernel_s" in res["setup"]:
            self.setups.append(res["setup"])
        if spans is not None:
            self.span_files[spans].append(params["spans"])
        return res

    def _read(self, proc, res: dict, op_cap: float) -> str | None:
        fd = proc.stdout.fileno()
        buf = b""
        cap = SETUP_CAP_S
        while True:
            wait = min(res["last"] + cap, self.deadline) - time.perf_counter()
            if wait <= 0:
                return ("run budget exhausted" if self.deadline <= res["last"] + cap
                        else f"no report within {cap:g} s")
            ready, _, _ = select.select([fd], [], [], wait)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                proc.wait()
                return None if any("done" in d for d in res["extra"]) else "ended without done"
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                try:
                    d = json.loads(line)
                except ValueError:
                    continue  # not a report line
                now = time.perf_counter()
                if "ready" in d:
                    res["setup"]["s"] = now - res["last"]
                    cap = op_cap
                elif "setup_kernel_s" in d:
                    res["setup"]["kernel_s"] = d["setup_kernel_s"]
                elif "op" in d:
                    res["ops"].append(d)
                    self.ops.append(d)
                else:
                    res["extra"].append(d)
                res["last"] = now

    def min_setups(self, k: int) -> None:
        """Set-up-only children, so that set-up is measured in at least
        k interpreters of the run (every work child measures it too)."""
        while len(self.setups) < k:
            self.child("setup", {})

    def measured(self) -> float:
        return sum(o["s"] for o in self.ops)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def repeats(self, k_min: int, done: int) -> bool:
        """Whether a repeated phase runs again: at least k_min times, then
        until the run has measured --seconds."""
        return done < k_min or (self.measured() < self.seconds and done < MAX_REPEATS)


# ---------------------------------------------------------------------------
# workloads: each runs its children and returns the operations by phase


def modulus_table(b: Bench, seed: int, sz: dict) -> dict:
    """Default table build, then reads of the built table passed explicitly."""
    ref_ms = stratified_log(_rng(seed, "ref_ms"), 1.0, 50.0, sz["ref_ms"])
    csv_path = os.path.join(b.out, "table.csv")
    spans = "workload" if b.trace else None
    build = b.child("build", {"csv": csv_path, "build_kw": sz["build_kw"], "ref_ms": ref_ms,
                              "cr_map_rel_max": sz["cr_map_rel_max"]}, BUILD_CAP_S, spans)
    if not any(o["op"] == "table_build" and o["error"] is None for o in build["ops"]):
        raise ChildFailed("table build failed; no reads possible", [], 0.0)

    def reads(k, spans):
        return b.child("reads", {"csv": csv_path, "n": sz["n"], "n_inverse": sz["n_inverse"],
                                 "law_seed": _subseed(seed, f"law{k}"),
                                 "input_seed": _subseed(seed, f"lookup{k}")},
                       spans=spans)["ops"]

    phases = {"build": build["ops"], "reads": []}
    while b.repeats(sz["read_repeats"], len(phases["reads"])):
        phases["reads"].append(reads(len(phases["reads"]), spans))
    if b.trace:
        # the same reads untraced: the overhead shows where spans are dense
        phases["untraced"] = [reads(k, None) for k in range(len(phases["reads"]))]
    return phases


def named_modulus_table(ph: dict, wall: bool) -> dict:
    rows = [(_sum(r, ("teich_stats",), wall), _sum(r, SAMPLE_OPS, wall),
             _sum(r, LOOKUP_OPS, wall)) for r in ph["reads"]]
    errs = [o["values"]["rel_err"] for o in ph["build"] if "rel_err" in o["values"]]
    return {"table_build_s": _sum(ph["build"], ("table_build",), wall),
            "teich_stats_s": statistics.median(r[0] for r in rows),
            "modulus_sample_s": statistics.median(r[1] for r in rows),
            "teich_stats_plus_sample_s": statistics.median(r[0] + r[1] for r in rows),
            "map_lookup_s": statistics.median(r[2] for r in rows),
            "cr_map_max_rel_err": max(errs) if errs else math.nan,
            "read_repeats": len(rows)}


def cold_solve(b: Bench, seed: int, sz: dict) -> dict:
    """Cold solves at seeded log-uniform tau, failures counted."""
    taus = stratified_log(_rng(seed, "taus"), TAU_MIN, TAU_MAX, sz["cold"])
    phases = {"cold": _cold_batch(b, taus, "workload" if b.trace else None)}
    if b.trace:
        # the solves that succeeded, again untraced (the failing ones
        # carry one span each too, but take ten times longer to redo)
        good = [o["values"]["tau"] for o in phases["cold"] if o["ok"]]
        phases["untraced"] = _cold_batch(b, good, None)
    return phases


def named_cold_solve(ph: dict, wall: bool) -> dict:
    ops = ph["cold"]
    times = sorted(op_time(o, wall) if o["ok"] else math.inf for o in ops)
    n = len(times)
    # 1-based rank with exactly ten solves beyond it; a batch of ten or
    # fewer (smoke sizes only) falls back to its smallest time
    rank = max(1, n - 10)
    p50, tail = statistics.median(times), times[rank - 1]
    return {"cold_solve_s": sum(op_time(o, wall) for o in ops),
            "cold_solve_p50_ms": p50 * 1e3, "cold_solve_tail_ms": tail * 1e3,
            "cold_solve_p50_s": p50, "cold_solve_tail_s": tail,
            "cold_solve_tail_pct": 100.0 * rank / n, "cold_solves": n,
            "cold_failures": sum(1 for o in ops if not o["ok"])}


def _cold_batch(b: Bench, taus: list[float], spans) -> list[dict]:
    """Solve every tau; after a hung or crashed child, go on with a new one.

    A solve that hung counts as failed, with the time it was given.
    """
    ops: list[dict] = []
    i = 0
    while i < len(taus):
        try:
            ops += b.child("cold", {"taus": taus[i:]}, spans=spans)["ops"]
            break
        except ChildFailed as exc:
            ops += exc.ops
            i += len(exc.ops)
            if b.remaining() <= 0 or i >= len(taus):
                raise
            hung = {"op": "cold_solve", "ok": False, "error": "timeout or crash", "checks": {},
                    "values": {"tau": taus[i]}, "s": exc.stalled_s,
                    "kernel_s": [calib.kernel_s()]}
            calib.smooth([hung])
            b.ops.append(hung)
            ops.append(hung)
            i += 1
    return ops


def laws_mc(b: Bench, seed: int, sz: dict) -> dict:
    """Table-free sampling, the torus identity loop and one-shot CLI calls."""
    rng = _rng(seed, "cli")
    at = [round(rng.uniform(2.0, 12.0), 6) for _ in range(sz["cli"])]

    def laws(k, spans):
        r = b.child("laws", {"laws": TABLE_FREE_LAWS, "n": sz["n"],
                             "law_seed": _subseed(seed, f"law{k}"), "torus_n": sz["torus_n"],
                             "torus_seed": _subseed(seed, f"torus{k}"), "cli_at": at},
                    spans=spans)
        return r["ops"], next(d["cli_ref"] for d in r["extra"] if "cli_ref" in d)

    cli = _cli_calls(b, at)
    phases = {"cli": cli, "laws": []}
    refs = None
    while b.repeats(sz["law_repeats"], len(phases["laws"])):
        ops, refs = laws(len(phases["laws"]), "workload" if b.trace else None)
        phases["laws"].append(ops)
    _check_cli(cli, refs)
    if b.trace:
        phases["untraced"] = [laws(k, None)[0] for k in range(len(phases["laws"]))]
    return phases


def named_laws_mc(ph: dict, wall: bool) -> dict:
    cli = [op_time(o, wall) for o in ph["cli"] if "stdout" in o["values"]]
    return {"law_sample_s": statistics.median(_sum(r, LAW_OPS, wall) for r in ph["laws"]),
            "torus_sample_s": statistics.median(_sum(r, ("torus_sample",), wall)
                                                for r in ph["laws"]),
            "cli_pdf_at_s": statistics.median(cli) if cli else math.nan,
            "law_repeats": len(ph["laws"])}


def _cli_calls(b: Bench, at: list[float]) -> list[dict]:
    """Fresh `python -m punctorus.cli pdf --at x` processes, one at a time."""
    ops = []
    for x in at:
        cmd = [sys.executable, "-m", "punctorus.cli", "pdf", "--law", "quad_cr", "--at", repr(x)]
        op = {"op": "cli_pdf_at", "ok": True, "error": None, "checks": {}, "values": {"at": x}}
        before = calib.kernel_s()
        t0 = time.perf_counter()
        try:
            cp = subprocess.run(cmd, cwd=b.root, env=b.env, capture_output=True, text=True,
                                timeout=max(1.0, min(OP_CAP_S, b.remaining())))
            op["s"] = time.perf_counter() - t0
            op["values"]["stdout"] = cp.stdout.strip()
            op["checks"]["exit_code"] = cp.returncode == 0
        except subprocess.TimeoutExpired:
            op["s"] = time.perf_counter() - t0
            op["error"] = "timeout"
        op["kernel_s"] = [before, calib.kernel_s()]
        op["ok"] = op["error"] is None and all(op["checks"].values())
        b.ops.append(op)
        ops.append(op)
    calib.smooth(ops)
    return ops


def _check_cli(ops: list[dict], refs: list[float]) -> None:
    """The CLI's printed value must equal the in-process closed form."""
    for op, ref in zip(ops, refs):
        if "stdout" not in op["values"]:
            continue
        try:
            good = abs(float(op["values"]["stdout"]) - ref) <= 1e-12 * abs(ref)
        except ValueError:
            good = False
        op["checks"]["value"] = good
        op["ok"] = op["ok"] and good


RUNNERS = {"modulus-table": (modulus_table, named_modulus_table),
           "cold-solve": (cold_solve, named_cold_solve),
           "laws-mc": (laws_mc, named_laws_mc)}
OVERHEAD_OPS = {"modulus-table": ("reads", ("teich_stats",) + SAMPLE_OPS + LOOKUP_OPS),
                "cold-solve": ("cold", ("cold_solve",)),
                "laws-mc": ("laws", LAW_OPS + ("torus_sample",))}


def overhead_pct(workload: str, ph: dict) -> float | None:
    """Traced minus untraced time of the same phase, per cent of untraced."""
    phase, names = OVERHEAD_OPS[workload]
    traced, base = ph[phase], ph.get("untraced")
    if not base:
        return None
    if workload == "cold-solve":  # one batch; compare the solves that succeeded
        t = sum(op_time(o) for o in traced if o["ok"])
        u = sum(op_time(o) for o in base if o["ok"])
    else:
        t = statistics.median(_sum(r, names, False) for r in traced)
        u = statistics.median(_sum(r, names, False) for r in base)
    return 100.0 * (t - u) / u


# ---------------------------------------------------------------------------
# traced run extras


def probe(b: Bench, sz: dict) -> dict:
    """The fixed layer probe and a fresh-interpreter import of the CLI."""
    b.child("probe", {"n": sz["n"], "table_n": sz["probe_table_n"],
                      "torus_n": sz["probe_torus_n"], "integrate_pairs": INTEGRATE_PAIRS,
                      "cold_taus": PROBE_COLD_TAUS}, spans="probe")
    imp = b.child("cli_import", {})
    return {"cli.import_s": imp["ops"][0]["s"]}


def per_layer(b: Bench, probe_vals: dict, overhead: float | None) -> tuple[dict, dict]:
    spans = {src: [s for f in files for s in tracer.load(f, src)]
             for src, files in b.span_files.items()}
    values, source = layers.merge(layers.compute(spans["workload"]),
                                  layers.compute(spans["probe"]))
    values.update(probe_vals)
    source.update({k: "probe" for k in probe_vals})
    if overhead is not None:
        values["trace.overhead_pct"], source["trace.overhead_pct"] = overhead, "workload"
    with open(os.path.join(b.out, "trace.jsonl"), "w") as fh:
        for src, ss in spans.items():
            for s in ss:
                row = {k: s[k] for k in tracer.FIELDS}
                row["source"] = src
                fh.write(json.dumps(row) + "\n")
    return values, source


# ---------------------------------------------------------------------------
# reporting


def environment(root: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    commit = None
    if shutil.which("git"):
        try:
            cp = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10)
            commit = cp.stdout.strip() if cp.returncode == 0 else None
        except subprocess.TimeoutExpired:
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            **versions, "commit": commit, "seed": seed}


UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_pct": "%", "_mb": "MB", "_ratio": "ratio",
         "_err": "ratio"}


def unit_of(name: str) -> str:
    return next((u for suf, u in UNITS.items() if name.endswith(suf)), "count")


def spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, root: str,
        budget: float) -> dict:
    sz = SIZES[size]
    out = os.path.join(root, ".perfbench_out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    t_start = time.perf_counter()
    b = Bench(root, out, trace, seconds, budget)
    runner, summarize = RUNNERS[workload]
    phases, probe_vals, aborted = None, {}, None
    try:
        phases = runner(b, seed, sz)
        b.min_setups(sz["min_setups"])
        if trace:
            probe_vals = probe(b, sz)
    except ChildFailed as exc:
        aborted = str(exc)
        b.ops.append({"op": "aborted", "ok": False, "error": aborted, "checks": {},
                      "values": {}, "s": exc.stalled_s, "kernel_s": [calib.REF_S],
                      "kernel_ref_s": calib.REF_S})

    named, wall = {}, {}
    if phases is not None:
        named, wall = summarize(phases, False), summarize(phases, True)
    setup = [calib.normalized(s["s"], s["kernel_s"]) for s in b.setups]
    named["setup_s"] = statistics.median(setup) if setup else math.nan
    wall["setup_s"] = statistics.median(s["s"] for s in b.setups) if b.setups else math.nan
    named["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    failed = [o for o in b.ops if not o["ok"]]
    bad_checks = [o for o in b.ops if not all(o["checks"].values())]
    unexpected = [o for o in failed if not (o["op"] in KNOWN_FAILING_OPS
                                            and o["error"] in TYPED_ERRORS)]
    correct = aborted is None and not bad_checks and not unexpected

    e2e = {"setup_s": named["setup_s"], "peak_rss_mb": named["peak_rss_mb"]}
    e2e.update({slot: named.get(name, math.nan)
                for slot, name in zip(SLOT_NAMES, SLOTS[workload])})
    report = {"workload": workload, "trace": int(trace), "size": size,
              "named_metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in named.items()},
              "wall_metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in wall.items()
                               if unit_of(k) in ("s", "ms")},
              "slots": dict(zip(SLOT_NAMES, SLOTS[workload])),
              "ops_attempted": len(b.ops), "ops_failed": len(failed),
              "failures": [{k: o.get(k) for k in ("op", "error", "checks", "values")}
                           for o in failed][:40],
              "aborted": aborted, "run_wall_s": time.perf_counter() - t_start,
              "env": environment(root, seed)}
    s = spec()
    if trace:
        values, source = {}, {}
        if aborted is None:
            values, source = per_layer(b, probe_vals, overhead_pct(workload, phases))
        report["traced_e2e"] = e2e
        report["per_layer_source"] = source
        wanted = {m["name"]: m["unit"] for m in s["per_layer"]}
    else:
        values = e2e
        wanted = {m["name"]: m["unit"] for m in s["end_to_end"]}
    metrics = {}
    for name, unit in wanted.items():
        v = values.get(name)
        if v is None or not math.isfinite(v):
            correct, v = False, 0.0
        metrics[name] = {"value": v, "unit": unit}
    report["correct"] = correct
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({"report": report, "ops": b.ops, "setups": b.setups}, fh, indent=1)
    return {"report": report, "result": {"correct": correct, "attempted": len(b.ops),
                                         "failed": len(failed), "metrics": metrics}}


def print_run(out: dict) -> None:
    rep = out["report"]
    print(f"# {rep['workload']} trace={rep['trace']} seed={rep['env']['seed']} "
          "(times normalized to the reference kernel; raw wall in brackets)")
    for k, v in rep["named_metrics"].items():
        raw = rep["wall_metrics"].get(k)
        extra = f"  [{raw['value']:.6g} {raw['unit']} wall]" if raw else ""
        print(f"{k:28s} {v['value']:.6g} {v['unit']}{extra}")
    print(f"{'ops_attempted':28s} {rep['ops_attempted']}")
    print(f"{'ops_failed':28s} {rep['ops_failed']}")
    print(json.dumps(rep))
    print(json.dumps(out["result"]))


# the thirteen named end-to-end metrics, by workload
NAMED = {"modulus-table": ("table_build_s", "teich_stats_s", "modulus_sample_s",
                           "map_lookup_s", "cr_map_max_rel_err"),
         "cold-solve": ("cold_solve_s", "cold_solve_p50_ms", "cold_solve_tail_ms"),
         "laws-mc": ("law_sample_s", "torus_sample_s", "cli_pdf_at_s")}


def smoke(root: str) -> int:
    """Tiny sizes: every named metric of every workload, and every metric
    of BENCHMARK.json, traced and untraced, must print with its unit."""
    s = spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            out = run(workload, 1, 0.0, trace, "smoke", root, 900.0)
            print_run(out)
            rep, res = out["report"], out["result"]
            for m in s["per_layer"] if trace else s["end_to_end"]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or wrong unit")
            for name in NAMED[workload] + ("setup_s", "peak_rss_mb"):
                v = rep["named_metrics"].get(name)
                if v is None or not v["unit"] or not math.isfinite(v["value"]):
                    problems.append(f"{workload} trace={trace}: named metric {name} not printed")
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: not correct ({rep['aborted']})")
    for p in problems:
        print("SMOKE FAIL:", p, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, check output")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "punctorus", "__init__.py")):
        print("error: run from the repository root; src/punctorus not found", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        ap.error("--workload is required")
    print_run(run(args.workload, args.seed, args.seconds, bool(args.trace), "full", root,
                  RUN_BUDGET_S))
    return 0


if __name__ == "__main__":
    sys.exit(main())
