"""In-memory spans recorded around calls into the punctorus layers.

A span has a name, start and end times, the span that was open when it
started (its parent) and the benchmark operation it belongs to.  Spans
stay in memory and are written once, when the child process ends.  The
wrappers replace module attributes in the benchmark's own process, so
calls a module makes through its own globals (``modmap`` calling
``lame.solve_accessory``, ``summary_stats`` calling ``modulus_of_cr``)
are recorded too; names a module bound at import time are not.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

FIELDS = ("id", "name", "t0", "t1", "parent", "op", "err", "attrs")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, time.perf_counter(), None, parent, self.op, None, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield attrs
        except BaseException as exc:
            rec[6] = type(exc).__name__
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, fname: str, describe=None) -> None:
        """Replace ``module.fname`` by a span-recording wrapper.

        ``describe(args, kwargs)`` returns span attributes known before
        the call; ``describe`` may also return a callable taking the
        result, whose attributes are added after the call.
        """
        fn = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = describe(args, kwargs) if describe else {}
            after = attrs.pop("_after", None)
            with self.span(name, **attrs) as a:
                result = fn(*args, **kwargs)
                if after is not None:
                    a.update(after(result))
            return result

        setattr(module, fname, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load(path: str, source: str) -> list[dict]:
    """Spans of one child as dicts, tagged with where they came from."""
    with open(path) as fh:
        rows = json.load(fh)
    out = []
    for row in rows:
        d = dict(zip(FIELDS, row))
        d["source"] = source
        d["key"] = (path, d["id"])
        d["parent_key"] = (path, d["parent"]) if d["parent"] is not None else None
        out.append(d)
    return out


def duration(s: dict) -> float:
    return s["t1"] - s["t0"]


def self_time(span: dict, spans: list[dict]) -> float:
    """The span's duration minus the part its direct children cover."""
    kids = sorted((c["t0"], c["t1"]) for c in spans if c["parent_key"] == span["key"])
    covered, end = 0.0, float("-inf")
    for t0, t1 in kids:
        t0 = max(t0, end)
        if t1 > t0:
            covered += t1 - t0
            end = t1
    return duration(span) - covered
