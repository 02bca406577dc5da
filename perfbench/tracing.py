"""In-memory span tracing by wrapping library callables from outside.

The benchmark records spans without touching the library: it swaps the
attribute a caller looks up (a module function, a class method or an
instance method) for a wrapper that records (name, start, end, parent,
run id) plus optional counters, and puts the original back afterwards.
Spans stay in memory until the run ends and are then written as JSON lines.
"""

from __future__ import annotations

import json
import time

_MISSING = object()


class Tracer:
    """Collects spans from wrapped callables. Single-threaded: the parent of
    a span is the innermost wrapped call still running when it starts."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id, counters or None)
        self.run_id = ""
        self._stack = []
        self._saved = []  # (owner, attribute, value in owner.__dict__ or _MISSING)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a recording wrapper. ``count(args,
        kwargs, result)`` may return a dict of counters for the span; it runs
        after the span's end time is taken."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent, self.run_id, {"error": 1})
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            counters = count(args, kwargs, result) if count is not None else None
            spans[index] = (name, start, end, parent, self.run_id, counters)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every wrapped attribute, newest first, exactly as found:
        attributes that were only inherited are deleted again."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, run_id, counters in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                if counters:
                    rec["counters"] = counters
                f.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per span: duration minus the part of it covered by its direct
    children (overlaps between children are counted once)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """Totals per span name: ``s`` (inclusive time, not counting a span
    nested inside another of the same name), ``self_s``, ``calls`` and the
    sum of each counter."""
    selfs = self_times(spans)
    totals = {}
    for i, (name, start, end, parent, _run, counters) in enumerate(spans):
        agg = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counters": {}})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
        for key, val in (counters or {}).items():
            agg["counters"][key] = agg["counters"].get(key, 0) + val
    return totals


def tail_percentile(samples, permille):
    """Nearest-rank percentile (``permille`` = 900 for p90), or None unless
    at least ten samples lie beyond it, so p90 needs 100 samples."""
    n = len(samples)
    rank = -(-permille * n // 1000)  # ceil, in integers to avoid float rounding
    if n - rank < 10:
        return None
    return sorted(samples)[max(rank, 1) - 1]
