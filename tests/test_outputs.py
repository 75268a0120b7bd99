"""The bytes the command line emits, pinned by digest.

Each command runs in process through ``cli.main`` with stdout captured;
the digest is the first 16 hex digits of the SHA-256 of that stdout.
``verify --quick`` prints how long each check took, so its per-check
seconds are stripped first, as ``sed -E 's/, [0-9.]+s$//'`` would.  The
digests were taken under the numpy version recorded beside them; they
are compared exactly, under any version, and a mismatch names the
command and both versions.  A change that moves a digest on purpose
updates the table and lists old -> new in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np

from punctorus import cli

NUMPY = "2.4.6"

_SAMPLE = ["--n", "100000", "--seed", "7"]

DIGESTS = [
    (["sample", "--law", "crossratio_full", *_SAMPLE], "de6d61cfdafb33f9"),
    (["sample", "--law", "quad_cr", *_SAMPLE], "173862f633083497"),
    (["sample", "--law", "length", *_SAMPLE], "67757c9461fc2e92"),
    (["sample", "--law", "star", *_SAMPLE], "689b2fe1171bb730"),
    (["sample", "--law", "modulus", *_SAMPLE], "94b56ef4d128b88a"),
    (["sample", "--law", "teich", *_SAMPLE], "01a1a3ef2bd2cd89"),
    (["sample", "--law", "crossratio_full", *_SAMPLE, "--format", "json"], "5e470da2bf67aee9"),
    (["sample", "--law", "quad_cr", *_SAMPLE, "--format", "json"], "ae5ac6b2c68da7af"),
    (["sample", "--law", "length", *_SAMPLE, "--format", "json"], "c85a8be072569bfb"),
    (["sample", "--law", "star", *_SAMPLE, "--format", "json"], "26d11dce3d89e8f1"),
    (["sample", "--law", "modulus", *_SAMPLE, "--format", "json"], "0ce885711ba76fa2"),
    (["sample", "--law", "teich", *_SAMPLE, "--format", "json"], "7fa76569465a88ed"),
    (["teich", "--stats"], "9670257b009e586b"),
    (["cr-map", "--table"], "5fe434a4376ca1b0"),
    (["pdf", "--law", "quad_cr", "--from", "2", "--to", "25", "--step", "0.25"], "be2b0681731c4075"),
    (["cdf", "--law", "crossratio_full", "--from", "-5", "--to", "5", "--step", "0.125"], "834d290e370ee361"),
    (["accessory", "--tau", "0.5"], "9a42ff40b4acf805"),
    (["quasimobius", "--src", "3", "--dst", "7"], "30686ca9f2e606e0"),
    (["verify", "--quick"], "c11d5ca6713fa9ee"),
]

_SECONDS = re.compile(r", [0-9.]+s$", re.MULTILINE)


def _digest(argv, capsys) -> str:
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    if argv[0] == "verify":
        out = _SECONDS.sub("", out)
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def test_emitted_bytes_are_pinned(capsys):
    # every command runs, so one failure lists every moved digest
    moved = [f"`punctorus {' '.join(argv)}` printed digest {got}, pinned {want}"
             for argv, want in DIGESTS if (got := _digest(argv, capsys)) != want]
    assert not moved, "\n".join(
        [*moved, f"pinned under numpy {NUMPY}; running numpy {np.__version__}"])



# A solve that finds no bracket exits 3, writes nothing to stdout, and
# writes the solver's diagnostics to stderr as one JSON line.
FAILING = (["accessory", "--tau", "6"], "fe744059c6dca56f")


def _check_failure(out: str, err: str) -> None:
    argv, want = FAILING
    assert out == ""
    got = hashlib.sha256(err.encode()).hexdigest()[:16]
    assert got == want, (f"`punctorus {' '.join(argv)}` wrote stderr digest {got}, pinned "
                         f"{want} under numpy {NUMPY}; running numpy {np.__version__}")


def test_failing_solve_is_pinned(capsys):
    assert cli.main(FAILING[0]) == 3
    captured = capsys.readouterr()
    _check_failure(captured.out, captured.err)


def test_failing_solve_is_pinned_in_a_fresh_interpreter(fresh_python):
    # the solver loads only inside the command, so main's mapping of its
    # failure to exit 3 is checked where nothing imported lame beforehand
    proc = fresh_python("-m", "punctorus.cli", *FAILING[0], returncode=3)
    _check_failure(proc.stdout, proc.stderr)
