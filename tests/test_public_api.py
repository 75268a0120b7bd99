"""Every public function over extreme inputs, and the CLI over extreme options.

The sweep walks the ``__all__`` of each module and calls every callable
on the 19-value grid below, every tuple of grid values for its required
parameters.  A call must return a result free of nan when no argument is
nan, or raise ``ValueError``, ``BracketError`` or ``SolverFailure``;
anything else fails, a ``RuntimeWarning`` included (pytest turns it into
an error).  Callables that take no float arguments are skipped by name
below, so a new public function is swept by default.
"""
from __future__ import annotations

import cmath
import importlib
import inspect
import itertools
import math
import sys
import time

import numpy as np
import pytest

from punctorus import cli
from punctorus.lame import BracketError, SolverFailure

BIG = sys.float_info.max
GRID = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-8, 1e8,
        1e300, -1e300, BIG, -BIG, math.inf, -math.inf, math.nan)
TYPED = (ValueError, BracketError, SolverFailure)

MODULES = ("closedform", "hypgeom", "lame", "modmap", "torusgroup", "mc", "verify")

# Callables that take no float arguments, by name, with what they take.
SKIP = {
    "closedform.sample_quad_cr_values": "a count and a generator",
    "hypgeom.CrossRatio": "a record: holds the value it is given",
    "lame.BracketError": "an exception: a message",
    "lame.SolverFailure": "an exception: a message",
    "lame.LameEndpointData": "a record: holds the endpoint values it is given",
    "lame.circle_invariants": "endpoint data",
    "lame.CircleInvariants": "a record: holds the circle values it is given",
    "lame.AccessorySolve": "a record: holds the solve it is given",
    "modmap.CrMapTable": "node arrays and records",
    "modmap.build_cr_table": "a keyword node count",
    "torusgroup.GeneratorPair": "two maps",
    "torusgroup.AngleRelation": "a record: holds the angle and cross ratio it is given",
    "torusgroup.commutator": "two maps",
    "torusgroup.tangency_vertices": "a generator pair",
    "torusgroup.sample_torus": "a seed or a generator",
    "mc.McConfig": "integer counts and seeds",
    "mc.EmpiricalSummary": "a record: holds the summary it is given",
    "mc.run_law": "a config",
    "verify.CheckResult": "a record: holds the verdicts it is given",
    "verify.run_checks": "a flag; the acceptance suite, run by test_verify",
}

# Over three runs on a 2-core Xeon the slowest function call took 8.6 ms
# (a cold solve at tau = 3) and the slowest CLI call 23 ms
# (`pdf --law length --at=5e-324`); the bound leaves a margin of about 10.
CALL_BOUND_S = 0.25


def _public():
    for mod in MODULES:
        module = importlib.import_module(f"punctorus.{mod}")
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield f"{mod}.{name}", obj


def _required(fn) -> int:
    return sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               for p in inspect.signature(fn).parameters.values())


def _has_nan(obj, depth: int = 0) -> bool:
    """Whether a result holds a nan: numbers, arrays, containers, and the
    fields of records and other objects, a few levels deep."""
    if isinstance(obj, (float, complex, np.number)):
        return cmath.isnan(obj)
    if isinstance(obj, (tuple, list)):
        return any(_has_nan(v, depth + 1) for v in obj)
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind in "fc" and bool(np.isnan(obj).any())
    if depth > 6 or isinstance(obj, (str, bytes, int, type(None))):
        return False
    if not isinstance(obj, dict):
        obj = getattr(obj, "__dict__", None) or {
            k: getattr(obj, k) for k in getattr(type(obj), "__slots__", ())}
    return any(_has_nan(v, depth + 1) for v in obj.values())


SWEPT = [(name, fn) for name, fn in _public() if name not in SKIP]


def test_skip_list_names_public_callables():
    assert set(SKIP) <= {name for name, _ in _public()}


@pytest.mark.parametrize("name, fn", SWEPT, ids=[name for name, _ in SWEPT])
def test_extreme_inputs_return_or_raise_a_typed_error(name, fn):
    slowest = 0.0
    for args in itertools.product(GRID, repeat=_required(fn)):
        start = time.perf_counter()
        try:
            out = fn(*args)
        except TYPED:
            out = None
        slowest = max(slowest, time.perf_counter() - start)
        if not any(map(math.isnan, args)):
            assert not _has_nan(out), (name, args)
    assert slowest < CALL_BOUND_S, (name, slowest)


def _argv_cases():
    """Each numeric option of the CLI at the ends of its range."""
    floats = [repr(v) for v in GRID]
    for cmd in ("pdf", "cdf"):
        for law in cli.mc.CURVES:
            for v in floats:
                yield [cmd, "--law", law, f"--at={v}"]
    # grids: every size here is refused before anything is allocated
    for start, stop, step in [("0", "1", "5e-324"), ("-1e300", "1e300", "1e-300"),
                              (f"{-BIG!r}", f"{BIG!r}", "1"), ("0", "1e18", "1"),
                              ("1", "0", "1"), ("0", "1", "-1"), ("0", "1", "0"),
                              ("0", "inf", "1"), ("nan", "1", "1")]:
        yield ["pdf", "--law", "star", f"--from={start}", f"--to={stop}", f"--step={step}"]
    for v in ("0", "1", "10000000000000000000"):
        yield ["pdf", "--law", "star", "--at", "1", "--precision", v]
    for n in ("-1", "0", "1", str(10**18)):
        yield ["sample", "--law", "star", "--n", n, "--seed", "1"]
    for seed in ("-1", "0", str(2**64), str(10**40)):
        yield ["sample", "--law", "star", "--n", "1", "--seed", seed]
    for v in floats:
        yield ["cr-map", f"--modulus={v}"]
        yield ["accessory", f"--tau={v}"]
        yield ["quasimobius", f"--src={v}", "--dst=3"]
        yield ["quasimobius", "--src=3", f"--dst={v}"]
        yield ["teich", f"--at={v}"]


ARGV = list(_argv_cases())


@pytest.mark.parametrize("argv", ARGV, ids=[" ".join(a) for a in ARGV])
def test_cli_extremes_exit_cleanly(argv, capsys):
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < CALL_BOUND_S
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
