"""Spans recorded by the benchmark around its own calls into flab.

The package itself carries no instrumentation.  A traced pass therefore
records a span each time the benchmark calls a public flab function, and
reads self times, call counts and sizes off those spans afterwards.  Spans
stay in memory until the run ends.

Two ways of getting a span around a call:

* `Tracer.span` around a call the benchmark makes itself (the replayed
  steps of a top-level function);
* `interposed`, which swaps a public function in the namespace where flab
  looks it up for a span-recording wrapper, for calls made inside a flab
  function whose body is not a sequence of public calls.  The original is
  put back when the block ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with an implicit parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pass": self.pass_id,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class ChannelProxy:
    """Channel stand-in that records a span per apply / adjoint_apply."""

    def __init__(self, channel, tracer: Tracer):
        self._channel = channel
        self._tracer = tracer
        self.dim = channel.dim

    def apply(self, X):
        with self._tracer.span("channels.apply"):
            return self._channel.apply(X)

    def adjoint_apply(self, X):
        with self._tracer.span("channels.apply"):
            return self._channel.adjoint_apply(X)


@contextmanager
def interposed(tracer: Tracer, targets):
    """Wrap `owner.attribute` for each (owner, attribute, span name) target.

    Yields the span names whose target attribute does not exist, so the
    caller can report those metrics as not measurable from outside.
    """
    saved, missing = [], []
    try:
        for owner, attribute, name in targets:
            original = getattr(owner, attribute, None)
            if original is None:
                missing.append(name)
                continue
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original))
        yield missing
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def span_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, attrs summed and maximal.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because calls are sequential.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}, "attrs_max": {}}
        )
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[s["id"]]
        for key, value in s["attrs"].items():
            if isinstance(value, (int, float)):
                row["attrs"][key] = row["attrs"].get(key, 0) + value
                row["attrs_max"][key] = max(row["attrs_max"].get(key, value), value)
    return table


def children_time(spans: list[dict], parent_id: int) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] == parent_id)
