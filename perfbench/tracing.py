"""In-memory tracer that wraps library functions from outside the library.

``Tracer.install`` replaces each listed function or method on its module or
class, named by a dotted path, with a timing wrapper and ``uninstall`` puts
the originals back.  A
wrapper is either a *span* (one record per call: name, start, end, parent
span, command id) or an *aggregate* (count and busy time per (parent span,
name)), the latter for calls made once per point or per candidate.  Every
wrapper also tracks the time its direct children cover, so each record carries
its self time: its duration minus that of its wrapped children.  Work units
and errors are counted only for calls that return.  A listed module, class or
name that no longer exists is reported in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    owner: str  # dotted path of a module or class, e.g. "hingesketch.mult1d.MultStream1D"
    attr: str
    label: str
    span: bool = False  # False: aggregate per (parent span, label)
    units: Callable | None = None  # (args, kwargs, result) -> work items of one call
    errors: Callable | None = None  # (args, kwargs, result) -> failed work items of one call


def resolve(path: str):
    """The module or attribute a dotted path names, or None if any part is missing."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.aggs: dict[tuple[int, str], list] = {}  # -> [calls, busy, self, units, errors]
        self.absent: list[str] = []
        self._frames: list[list[float]] = []  # child time covered, per open call
        self._open_spans: list[int] = []
        self._cmd = -1
        self._undo: list[tuple[object, str, object]] = []  # raw None: delete the wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        for t in targets:
            owner = resolve(t.owner)
            own = True
            if isinstance(owner, type):  # the raw descriptor, also when inherited
                raw = next((vars(c)[t.attr] for c in owner.__mro__ if t.attr in vars(c)), None)
                own = t.attr in vars(owner)
            else:
                raw = getattr(owner, t.attr, None)
            if raw is None:
                self.absent.append(t.label)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, t))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, t))
            else:
                wrapped = self._wrap(raw, t)
            self._undo.append((owner, t.attr, raw if own else None))
            setattr(owner, t.attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def _wrap(self, fn, t: Target):
        frames, open_spans, spans, aggs = self._frames, self._open_spans, self.spans, self.aggs
        label, units, errors = t.label, t.units, t.errors

        if t.span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = {"name": label, "parent": open_spans[-1] if open_spans else None,
                       "cmd": self._cmd, "units": 0, "errors": 0}
                open_spans.append(len(spans))
                spans.append(rec)
                frame = [0.0]
                frames.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    frames.pop()
                    open_spans.pop()
                    if frames:
                        frames[-1][0] += t1 - t0
                    rec.update(start=t0, end=t1, self=t1 - t0 - frame[0])
                if units:
                    rec["units"] = units(args, kwargs, result)
                if errors:
                    rec["errors"] = errors(args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    frames.pop()
                    if frames:
                        frames[-1][0] += dur
                    key = (open_spans[-1] if open_spans else -1, label)
                    rec = aggs.get(key)
                    if rec is None:
                        rec = aggs[key] = [0, 0.0, 0.0, 0, 0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[0]
                if units:
                    rec[3] += units(args, kwargs, result)
                if errors:
                    rec[4] += errors(args, kwargs, result)
                return result

        return wrapper

    # -- commands -------------------------------------------------------------

    def command(self, label: str, fn, *args):
        """Call ``fn(*args)`` as the root span of one command; its children share its id."""
        self._cmd += 1
        return self._wrap(fn, Target("", "", label, span=True))(*args)

    # -- totals ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per label: calls, busy seconds, self seconds, work units and errors."""
        out: dict[str, dict[str, float]] = {}

        def add(label, calls, busy, self_s, units, errors):
            tot = out.setdefault(label, {"calls": 0, "busy": 0.0, "self": 0.0, "units": 0,
                                         "errors": 0})
            tot["calls"] += calls
            tot["busy"] += busy
            tot["self"] += self_s
            tot["units"] += units
            tot["errors"] += errors

        for s in self.spans:
            add(s["name"], 1, s["end"] - s["start"], s["self"], s["units"], s["errors"])
        for (_, label), (calls, busy, self_s, units, errors) in self.aggs.items():
            add(label, calls, busy, self_s, units, errors)
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                {"parent": None if p < 0 else p, "name": label, "calls": c, "busy": b,
                 "self": s, "units": u, "errors": e}
                for (p, label), (c, b, s, u, e) in self.aggs.items()
            ],
            "absent": self.absent,
        }
