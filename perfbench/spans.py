"""Spans recorded around the benchmark's calls into llvlat.

A span is (id, parent id, request id, name, start ns, end ns, ok).  Names
are "<layer>.<function>"; the layer of "bench.request" is the benchmark
itself.  Spans stay in memory and are written out once, at the end of a
traced run.  The untraced run uses NullTracer, which only makes the call.
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter_ns

LAYERS = ("lattice", "isometry", "harmonic", "cohomology", "lines", "arith",
          "monodromy", "cli")


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def request(self, rid, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None

    def call(self, name, fn, *args):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        ok = False
        start = perf_counter_ns()
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._request, name, start, end, ok)

    def request(self, rid, fn, *args):
        self._request = rid
        try:
            return self.call("bench.request", fn, *args)
        finally:
            self._request = None

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "request", "name", "start_ns", "end_ns", "ok"), s))))
                f.write("\n")

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the time its child spans cover (ns)."""
        out = {s[0]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[1] is not None:
                out[s[1]] -= s[5] - s[4]
        return out

    def by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for s in self.spans:
            out.setdefault(s[3], []).append(s[5] - s[4])
        return out

    def layer_table(self):
        """layer -> (calls, self ns); "bench" is the requests' own time."""
        selfs = self.self_times()
        table = {layer: [0, 0] for layer in LAYERS + ("bench",)}
        for s in self.spans:
            layer = s[3].split(".", 1)[0]
            if s[3] != "bench.request":
                table[layer][0] += 1
            table[layer][1] += selfs[s[0]]
        return table

    def median_us(self, name: str) -> float:
        d = self.by_name().get(name)
        return median(d) / 1e3 if d else 0.0

    def refused_frac(self, layer: str) -> float:
        calls = [s for s in self.spans if s[3].startswith(layer + ".")]
        return sum(not s[6] for s in calls) / len(calls) if calls else 0.0
