"""Outside-in tracing of propermaps: wrappers installed from the benchmark.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
target function or method with a timing wrapper: a module-level function is
rebound in every loaded ``propermaps`` module that holds it (``certify_proper``
is imported by name into ``homotopy``, ``constructors`` and ``cli``), and a
method is replaced on its class.  ``Tracer.uninstall`` puts every original
back, so untraced phases run the program exactly as shipped.

Each call becomes a span with its parent span, so self time (duration minus
the time covered by direct children) is exact in this single-threaded
program.  Counts are computed from arguments and return values only.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "phase", "op", "start", "end",
                 "child_s", "error", "counts")

    def __init__(self, span_id, name, parent, phase, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.phase = phase
        self.op = op
        self.child_s = 0.0
        self.error = False
        self.counts = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_row(self) -> list:
        parent = self.parent.id if self.parent is not None else None
        return [self.id, parent, self.name, self.phase, self.op,
                self.start, self.end, self.error, self.counts]


class Tracer:
    """Records spans of the wrapped callables; ``phase`` and ``op`` tag them.

    ``targets`` lists ``(module, qualname, count)``: ``qualname`` is
    ``Class.method`` for methods, and ``count(span, args, kwargs, result)``,
    when given, returns the span's counts.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op = None
        self._stack: list[Span] = []
        self._installed: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), name, parent, tracer.phase, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if count is not None:
                span.counts = count(span, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, qualname, count in self.targets:
            self._install_one(module, qualname, count)

    def _install_one(self, module: str, qualname: str, count):
        mod = importlib.import_module(f"propermaps.{module}")
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, count))
            self._installed.append((owner, attr, original))
            return
        original = getattr(mod, qualname)
        wrapper = self._wrap(name, original, count)
        holders = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "propermaps"
                                         or key.startswith("propermaps."))]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._installed.append((holder, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ reporting
    def spans_where(self, phase: str) -> list:
        return [s for s in self.spans if s.phase == phase]


def summarize(spans) -> dict:
    """Per span name: calls, self_s, total_s, errors and summed counts."""
    out: dict = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["self_s"] += span.self_s
        row["total_s"] += span.end - span.start
        row["errors"] += int(span.error)
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out
