"""Span tracer for the traced benchmark run.

The tracer wraps public cityguard functions at module boundaries: it
replaces the attribute that a calling module looks up (for example
``cityguard.verify.visibility_region``, which ``certify`` calls) with a
wrapper that records one span per call.  A span holds its name, start,
end, parent span and op id.  Spans stay in memory and are written out
once, at the end of the run.

Self time is a span's duration minus the time of its direct children;
calls are single-threaded and properly nested, so the children never
overlap.  Counters come from public return values only: ``Solution.trace``,
``Certificate.residual`` and ``OracleResult.faces``.

Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

CERTIFY_SPANS = ("verify.covers", "verify.certify", "verify.certify_city")

# per-layer metric -> (kind, source).  "self" sums the self time of the
# named spans; "count" reads a counter.  Both are divided by the op count.
LAYER_METRICS = {
    "visibility.region_ms": ("self", ("visibility.region",)),
    "visibility.region_calls": ("count", "visibility.region_calls"),
    "visibility.region_misses": ("count", "visibility.region_misses"),
    "visibility.region_cells": ("count", "visibility.region_cells"),
    "verify.certify_ms": ("self", CERTIFY_SPANS),
    "verify.passes": ("count", "verify.passes"),
    "verify.redundant_passes": ("count", "verify.redundant_passes"),
    "verify.residual_cells": ("count", "verify.residual_cells"),
    "staircase.sharing_ms": ("self", ("staircase.sharing",)),
    "staircase.sharing_calls": ("count", "staircase.sharing_calls"),
    "placement.partition_ms": ("self", ("placement.partition",)),
    "placement.walls_2k1_ms": ("self", ("placement.walls_2k1",)),
    "placement.walls_main_ms": ("self", ("placement.walls_main",)),
    "placement.city_ms": ("self", ("placement.city",)),
    "placement.roof_ms": ("self", ("placement.roof",)),
    "placement.roof_fixes": ("count", "placement.roof_fixes"),
    "placement.case0": ("count", "placement.case0"),
    "placement.case1": ("count", "placement.case1"),
    "placement.case2": ("count", "placement.case2"),
    "placement.case3": ("count", "placement.case3"),
    "placement.guards": ("count", "placement.guards"),
    "oracle.faces_ms": ("self", ("oracle.faces",)),
    "oracle.faces": ("count", "oracle.faces"),
    "oracle.candidates": ("count", "oracle.candidates"),
    "oracle.cover_ms": ("self", ("oracle.cover",)),
    "oracle.roof_ms": ("self", ("oracle.roof",)),
    "io.parse_ms": ("self", ("io.parse",)),
}

# Solution.trace labels of guards_main -> the Case that dispatched them.
# Case 4 runs the Case 2 construction and is traced as "case2".
_CASE_OF_LABEL = {"case0": "placement.case0", "case1": "placement.case1",
                  "case2": "placement.case2", "case3i": "placement.case3",
                  "case3ii": "placement.case3", "case3-fallback": "placement.case3"}


class Tracer:
    def __init__(self):
        self.spans = []            # (op, name, start, end, parent span index)
        self.self_s = Counter()    # span name -> self seconds
        self.counts = Counter()
        self.op = None             # spans are recorded only while an op runs
        self._stack = []           # [span index, start, child seconds]
        self._seen_regions = set()
        self._passed = set()
        self._patches = []

    # -- ops -------------------------------------------------------------

    def begin_op(self, op):
        self.op = op
        self._passed = set()

    def end_op(self):
        self.op = None

    def reset_totals(self):
        self.self_s.clear()
        self.counts.clear()

    # -- spans -----------------------------------------------------------

    def wrap(self, fn, name, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.spans[index] = (tracer.op, name, frame[1], end, parent)
                tracer.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def patch(self, module, attr, name, on_return=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_return))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- counters from return values ---------------------------------------

    def _on_region(self, args, region):
        self.counts["visibility.region_calls"] += 1
        key = (args[0], args[1])
        if key not in self._seen_regions:
            self._seen_regions.add(key)
            self.counts["visibility.region_misses"] += 1
            self.counts["visibility.region_cells"] += len(region.region.cells)

    def _on_pass(self, args, result):
        self.counts["verify.passes"] += 1
        key = (args[0], frozenset(args[1]))
        if key in self._passed:
            self.counts["verify.redundant_passes"] += 1
        self._passed.add(key)
        if hasattr(result, "residual"):
            self.counts["verify.residual_cells"] += len(result.residual.cells)

    def _on_sharing(self, args, report):
        self.counts["staircase.sharing_calls"] += 1

    def _on_guards(self, args, solution):
        self.counts["placement.guards"] += solution.count

    def _on_walls_main(self, args, solution):
        self._on_guards(args, solution)
        for entry in solution.trace:
            metric = _CASE_OF_LABEL.get(entry[0])
            if metric is not None:
                self.counts[metric] += 1

    def _on_city(self, args, solution):
        self._on_guards(args, solution)
        self.counts["placement.roof_fixes"] += sum(
            1 for entry in solution.trace if entry[0] == "roof-fix")

    def _on_oracle(self, args, result):
        self.counts["oracle.candidates"] += len(args[1])
        self.counts["oracle.faces"] += len(result.faces or ())

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        import cityguard.bench as bench
        import cityguard.instances as instances
        import cityguard.io as io
        import cityguard.oracle as oracle
        import cityguard.placement as placement
        import cityguard.verify as verify

        # visibility, as seen by the verifier and by the oracle
        self.patch(verify, "visibility_region", "visibility.region", self._on_region)
        self.patch(oracle, "visibility_region", "visibility.region", self._on_region)
        # residual passes, as seen by placement, bench, certify_city and callers
        self.patch(verify, "certify", "verify.certify", self._on_pass)
        self.patch(verify, "certify_city", "verify.certify_city")
        self.patch(placement, "covers", "verify.covers", self._on_pass)
        self.patch(placement, "certify", "verify.certify", self._on_pass)
        self.patch(bench, "certify", "verify.certify", self._on_pass)
        self.patch(bench, "certify_city", "verify.certify_city")
        # placement stages, as seen by placement itself and by bench
        self.patch(placement, "staircase_sharing", "staircase.sharing", self._on_sharing)
        self.patch(placement, "partition_2k1", "placement.partition")
        self.patch(placement, "guards_2k1", "placement.walls_2k1")
        self.patch(placement, "guards_main", "placement.walls_main")
        self.patch(bench, "roof_guarding", "placement.roof", self._on_guards)
        self.patch(bench, "guards_2k1", "placement.walls_2k1", self._on_guards)
        self.patch(bench, "guards_main", "placement.walls_main", self._on_walls_main)
        self.patch(bench, "city_guarding", "placement.city", self._on_city)
        # oracle
        self.patch(oracle, "build_faces", "oracle.faces")
        self.patch(oracle, "optimal_guard_count", "oracle.cover", self._on_oracle)
        self.patch(oracle, "min_roof_guards", "oracle.roof")
        # io and instance generation
        self.patch(io, "parse_city", "io.parse")
        self.patch(io, "parse_solution", "io.parse")
        for attr in ("gen_random", "gen_random_city", "gen_3k1_necessity",
                     "gen_roof_necessity"):
            self.patch(instances, attr, "instances.gen")

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops: int, gen_ms: float) -> dict:
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind == "self":
                total = sum(self.self_s[name] for name in source) * 1000
            else:
                total = self.counts[source]
            out[metric] = total / n_ops
        calls = self.counts["visibility.region_calls"]
        misses = self.counts["visibility.region_misses"]
        out["visibility.hit_ratio"] = 1 - misses / calls if calls else 0.0
        out["instances.gen_ms"] = gen_ms / n_ops
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "op": op, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")
