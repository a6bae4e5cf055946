"""In-memory span recorder for the benchmark's traced run.

A span is ``(name, parent, start_ns, end_ns, request)``: ``parent`` is the
index of the enclosing span in record order (-1 for a root) and ``request`` numbers the
command invocation the span belongs to.  Spans are kept in a list while
the workload runs and written out as JSON lines when the run ends.

The recorder never edits the program: :func:`rebound` replaces each
public function by a recording wrapper in every ``qpurify`` module
namespace (and class) that holds it, so calls made through a module
global (``iterate`` -> ``one_round``) or through a by-name import
(``cli.find_thresholds``, ``oracle.one_round``) all land in the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

SPAN_FIELDS = ["name", "parent", "start_ns", "end_ns", "request"]

#: The package whose modules are rebound and whose imports are timed.
PACKAGE = "qpurify"

#: Observer hook: called before the wrapped function with
#: ``(counters, args, kwargs)``; may return a callback that receives the
#: result once the call returns.
Observer = Callable[[dict, tuple, dict], Callable[[object], None] | None]


class Recorder:
    """Collects spans and named counters for one traced run."""

    def __init__(self) -> None:
        self.records: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """Return ``fn`` wrapped so that every call records a span.

        The bookkeeping of :meth:`span` is inlined here because a scan
        makes about 100,000 wrapped calls per invocation.
        """
        records = self.records
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = observe(counters, args, kwargs) if observe is not None else None
            index = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[index] = (name, parent, start, end, self.request)
            if done is not None:
                done(result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = len(self.records)
        self.records.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records[index] = (name, parent, start, end, self.request)

    def spans(self) -> list[tuple]:
        return [r for r in self.records if r is not None]

    def write_jsonl(self, path) -> None:
        """One JSON array per span, after a header line naming the fields.

        A span's id is its line number after the header.
        """
        with open(path, "w") as out:
            out.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans():
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Per-span self time in ns: duration minus the part children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result is never negative.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, int]]:
    """Per span name: call count, total ns and self ns."""
    totals: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for (name, _, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += own
    return dict(totals)


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def rebound(recorder: Recorder, targets: Iterable[tuple[str, str, str, Observer | None]]):
    """Swap each target for a recording wrapper wherever it is looked up.

    ``targets`` holds ``(span name, module, qualified name, observer)``.
    A plain function is replaced in every loaded module of :data:`PACKAGE`
    whose namespace holds the same object; a classmethod is replaced on
    its class.  Everything is restored on exit.
    """
    patches: list[tuple[object, str, object]] = []
    replacements: dict[int, tuple[object, Callable]] = {}
    try:
        for name, module, qualname, observe in targets:
            owner, attr = _resolve(module, qualname)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patches.append((owner, attr, raw))
                setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__, observe)))
            else:
                replacements[id(raw)] = (raw, recorder.wrap(name, raw, observe))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
