"""Span recorder for the traced run.

A span is one call across a layer boundary: its name, start and end
(``perf_counter`` seconds), the index of the span open around it, the
operation it belongs to, the batch repetition it ran in, and an optional
size tier.  Spans stay in memory while the run goes on and are written
out once at the end.  Counters recorded at the same boundaries (steps,
candidates, ...) are kept per repetition next to the spans.

Untraced runs use ``NULL``, whose methods do nothing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP, REP, TIER = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._open: list[int] = []
        self.op = -1
        self.rep = -1

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]][NAME] if self._open else None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.rep][name] += amount

    @contextmanager
    def span(self, name: str, tier: str | None = None):
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.op, self.rep, tier]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def rep_summary(self, rep: int) -> dict:
        """Busy time, self time and span count per name, and per
        (name, tier), over the spans of one repetition.  Self time is the
        span's duration minus the time its direct children cover; spans
        run on one thread, so children never overlap."""
        child_time: dict[int, float] = defaultdict(float)
        chosen = [(idx, s) for idx, s in enumerate(self.spans) if s[REP] == rep]
        for _, s in chosen:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        busy: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for idx, s in chosen:
            dur = s[END] - s[START]
            for key in (s[NAME], (s[NAME], s[TIER])):
                busy[key] += dur
                own[key] += dur - child_time[idx]
                calls[key] += 1
        return {"busy": busy, "self": own, "calls": calls,
                "counts": dict(self.counts[rep])}

    def write(self, path) -> None:
        """All spans as tab-separated lines: name, start, end, parent
        index, operation, repetition, tier."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\top\trep\ttier\n")
            for s in self.spans:
                out.write(f"{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}"
                          f"\t{s[OP]}\t{s[REP]}\t{s[TIER] or ''}\n")


class _NullTracer:
    def count(self, name: str, amount: int = 1) -> None:
        pass

    @contextmanager
    def span(self, name: str, tier: str | None = None):
        yield None


NULL = _NullTracer()


def traced(tracer: Tracer, name: str, fn, note=None, tier=None):
    """``fn`` wrapped in a span.  ``tier(args, kwargs)`` labels the span;
    ``note(tracer, parent, args, kwargs, result, exc)`` records counters
    after the call, where ``parent`` is the name of the span around it."""

    def wrapper(*args, **kwargs):
        label = tier(args, kwargs) if tier else None
        parent = tracer.parent_name()
        with tracer.span(name, label):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if note:
                    note(tracer, parent, args, kwargs, None, exc)
                raise
        if note:
            note(tracer, parent, args, kwargs, result, None)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def patched(tracer: Tracer, probes):
    """Install each probe's wrapper on every binding it names for the
    duration of the block, then put the originals back.

    A probe is (span name, [(owner, attribute), ...], note, tier).
    Bindings that do not exist in this version of the program are
    skipped, so a refactor that removes one does not break the run.
    """
    saved = []
    try:
        for name, bindings, note, tier in probes:
            for owner, attr in bindings:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, traced(tracer, name, original, note, tier))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
