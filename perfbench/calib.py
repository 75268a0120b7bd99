"""A fixed reference kernel that tracks the machine's momentary speed.

On a shared host the speed of the same code drifts by 20% and more over
tens of seconds, and the drift is common to all code.  Timing this
kernel just before and just after each operation, and dividing, cancels
the drift: the benchmark reports ``wall * REF_S / kernel``, the time the
operation would take when the kernel takes exactly ``REF_S``.  The
kernel uses only the interpreter and numpy, never the package, so a
change to the package moves the operation's time and not the kernel's.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_S = 0.007  # about the kernel's median duration on the 2-core machine of the baseline

_X = np.random.default_rng(0).random(100_000)
_A = np.empty_like(_X)
_B = np.empty_like(_X)


def _once() -> float:
    # no allocation inside: the heap state the package left behind (a
    # raised mmap threshold after large arrays) must not change its time
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += math.sin(i * 1e-3) * (i % 7)
    np.exp(_X, out=_A)
    np.sin(_X, out=_B)
    np.multiply(_A, _B, out=_A)
    _A.sort()
    return time.perf_counter() - t0


def kernel_s(reps: int = 3) -> float:
    """Median duration of ``reps`` runs of the kernel, in seconds."""
    return statistics.median(_once() for _ in range(reps))


class Sampler:
    """Kernel samples taken around and, through hooks, inside operations.

    ``maybe()`` is called from inside long package calls; it times the
    kernel when ``every_s`` has passed since the last sample and keeps
    the time it spent, so the operation's own time can exclude it.
    """

    def __init__(self, every_s: float = 1.0):
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._next = 0.0

    def take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        t1 = time.perf_counter()
        self.spent_s += t1 - t0
        self._next = t1 + self.every_s

    def maybe(self) -> None:
        if time.perf_counter() >= self._next:
            self.take()

    def reset(self) -> None:
        self.samples, self.spent_s = [], 0.0


def smooth(ops: list[dict], k: int = 3) -> None:
    """Give each operation the kernel time that stands for the machine's
    speed while it ran.

    An operation that holds kernel samples taken inside it (three or
    more samples in all) gets their mean: its wall time adds up the
    slowdown over its whole length, and so does a time average.  A short
    operation, with a sample just before and one just after, gets the
    median of those and of its k neighbours' on either side, in the
    order they ran: one pair carries the kernel's own jitter, and the
    machine's drift is slow next to such an operation.
    """
    for i, op in enumerate(ops):
        if len(op["kernel_s"]) >= 3:
            op["kernel_ref_s"] = statistics.fmean(op["kernel_s"])
        else:
            window = [x for o in ops[max(0, i - k):i + k + 1] for x in o["kernel_s"]]
            op["kernel_ref_s"] = statistics.median(window)


def normalized(wall_s: float, kernel: float) -> float:
    return wall_s * REF_S / kernel
