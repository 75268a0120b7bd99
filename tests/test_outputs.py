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
    (["sample", "--law", "crossratio_full", *_SAMPLE], "78fb6f1c84085fa7"),
    (["sample", "--law", "quad_cr", *_SAMPLE], "c592a9b1e9000721"),
    (["sample", "--law", "length", *_SAMPLE], "c68e7a2849124fd4"),
    (["sample", "--law", "star", *_SAMPLE], "08ae8638f433728e"),
    (["sample", "--law", "modulus", *_SAMPLE], "fd914a6709b687a4"),
    (["sample", "--law", "teich", *_SAMPLE], "1f74cf64c71834bc"),
    (["sample", "--law", "crossratio_full", *_SAMPLE, "--format", "json"], "cc7523133664e1bf"),
    (["sample", "--law", "quad_cr", *_SAMPLE, "--format", "json"], "58ff5108b62fabfe"),
    (["sample", "--law", "length", *_SAMPLE, "--format", "json"], "a21b35699db6c46b"),
    (["sample", "--law", "star", *_SAMPLE, "--format", "json"], "23649d16a11af829"),
    (["sample", "--law", "modulus", *_SAMPLE, "--format", "json"], "09c67909a64e80c7"),
    (["sample", "--law", "teich", *_SAMPLE, "--format", "json"], "ef180433e003546f"),
    (["teich", "--stats"], "4a33643ab528adc8"),
    (["cr-map", "--table"], "69826f17fa5cea75"),
    (["pdf", "--law", "quad_cr", "--from", "2", "--to", "25", "--step", "0.25"], "be2b0681731c4075"),
    (["cdf", "--law", "crossratio_full", "--from", "-5", "--to", "5", "--step", "0.125"], "834d290e370ee361"),
    (["accessory", "--tau", "0.5"], "f1aad0b5eaa77abd"),
    (["quasimobius", "--src", "3", "--dst", "7"], "a6d6d439d3fabaa4"),
    (["verify", "--quick"], "c0bf6e08e64cc23d"),
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
    for argv, want in DIGESTS:
        got = _digest(argv, capsys)
        assert got == want, (f"`punctorus {' '.join(argv)}` printed digest {got}, pinned "
                             f"{want} under numpy {NUMPY}; running numpy {np.__version__}")



# A solve that finds no bracket exits 3, writes nothing to stdout, and
# writes the solver's diagnostics to stderr as one JSON line.
FAILING = (["accessory", "--tau", "6"], "fe744059c6dca56f")


def test_failing_solve_is_pinned(capsys):
    argv, want = FAILING
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    got = hashlib.sha256(captured.err.encode()).hexdigest()[:16]
    assert got == want, (f"`punctorus {' '.join(argv)}` wrote stderr digest {got}, pinned "
                         f"{want} under numpy {NUMPY}; running numpy {np.__version__}")
