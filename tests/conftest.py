"""Shared fixtures.

The cross-ratio table takes 16 ODE boundary solves, so one standard
table is built per session, timed for the acceptance gate, and passed
explicitly wherever a test wants the solver's table; code that passes
no table reads modmap's shipped default, which a test compares with
this build.  The full verification run on it (about five seconds) is
also made once.
"""
from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import punctorus
from punctorus import modmap, verify


@pytest.fixture(scope="session")
def cr_table_build() -> tuple[modmap.CrMapTable, float]:
    t0 = time.perf_counter()
    table = modmap.build_cr_table()
    elapsed = time.perf_counter() - t0
    return table, elapsed


@pytest.fixture(scope="session")
def cr_table(cr_table_build) -> modmap.CrMapTable:
    return cr_table_build[0]


@pytest.fixture(scope="session")
def verify_results(cr_table) -> list[verify.CheckResult]:
    return verify.run_checks(table=cr_table)


@pytest.fixture
def concurrent_first_calls():
    """Call fn from four threads released together; return the results."""

    def run(fn):
        barrier = threading.Barrier(4)
        results = []

        def worker():
            barrier.wait(timeout=10)
            results.append(fn())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 4
        return results

    return run


@pytest.fixture
def fresh_python():
    """Run a fresh interpreter on args with this package importable."""
    src = str(Path(punctorus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))

    def run(*args, returncode=0):
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == returncode, proc.stderr
        return proc

    return run
