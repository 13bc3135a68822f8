"""In-memory spans and counters taken from outside the program.

`install` rebinds public entry points of the zslen modules to wrappers
that open a span around each call, or count calls and results.  Every
zslen module that imported the same function object gets the wrapper, so
calls between modules are seen too.  Nothing under src/ is edited.

A layer's self time is its spans' duration minus their child spans'
duration.  The verify suites are containers for the other layers, so
their metrics are inclusive time instead.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# span name -> metric name; verify suites report inclusive time
SELF_METRICS = {
    "group.tables": "group.tables_s",
    "atoms.walk": "atoms.walk_s",
    "cache.store": "cache.store_s",
    "cache.load": "cache.load_s",
    "sequence.zero_sum": "sequence.zero_sum_s",
    "lengths.cold_query": "lengths.cold_query_s",
    "lengths.warm_query": "lengths.warm_query_s",
    "lengths.engine_lookup": "lengths.engine_lookup_s",
    "invariants.system": "invariants.system_s",
    "invariants.delta": "invariants.delta_s",
    "invariants.unions": "invariants.unions_s",
    "structure_fit.fit": "structure_fit.fit_s",
    "numerical.accdelta": "numerical.accdelta_s",
    "transfer.check": "transfer.check_s",
}

VERIFY_SUITES = {
    "verify_prop_2_3": "prop2.3",
    "verify_prop_6_1": "prop6.1",
    "verify_prop_6_2": "prop6.2",
    "verify_prop_6_5": "prop6.5",
    "verify_thm_2_6": "thm2.6",
    "verify_thm_5_3": "thm5.3",
    "verify_thm_6_3_1": "thm6.3.1",
    "verify_lemma_4_2": "lemma4.2",
}
TOTAL_METRICS = {f"verify.{s}": f"verify.{s}_s" for s in VERIFY_SUITES.values()}

# counters that must repeat exactly for the same inputs
DETERMINISTIC_COUNTERS = (
    "atoms.nodes",
    "atoms.count",
    "sequence.zero_sum_count",
    "sequence.dense_calls",
    "lengths.queries",
    "lengths.memo_entries",
    "structure_fit.fits",
    "numerical.length_tables",
    "transfer.h_atoms",
    "cache.bytes",
)

LAYER_METRICS = (
    tuple(SELF_METRICS.values())
    + DETERMINISTIC_COUNTERS
    + ("atoms.atoms_per_knode",)
    + tuple(TOTAL_METRICS.values())
    + ("trace.overhead_s",)
)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "atoms.atoms_per_knode":
        return "atoms/knode"
    if name == "cache.bytes":
        return "bytes"
    return "count"


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.gauges: dict[str, int] = {}
        self.engines: dict[int, object] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def spanned(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, fn, name=None, on_result=None):
        """Count calls under `name` (when given) and observe each result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is not None:
                self.counters[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def memo_entries(self) -> int:
        return sum(engine.memo_size for engine in self.engines.values())

    def aggregate(self) -> dict:
        """Self and inclusive seconds per span name."""
        selves = self_times(self.spans)
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += selves[i]
            total_s[name] += end - start
        return {"self": dict(self_s), "total": dict(total_s)}

    def counter_snapshot(self) -> dict:
        out = dict(self.counters)
        out.update(self.gauges)
        out["lengths.memo_entries"] = self.memo_entries()
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations.  Spans come
    from one stack, so children are disjoint and lie inside their parent."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent != -1:
            out[parent] -= end - start
    return out


def layer_metrics(agg: dict, counters: dict) -> dict:
    """Per-layer metric values from an aggregate and its counters."""
    out = {}
    for span, metric in SELF_METRICS.items():
        out[metric] = agg["self"].get(span, 0.0)
    for span, metric in TOTAL_METRICS.items():
        out[metric] = agg["total"].get(span, 0.0)
    for name in DETERMINISTIC_COUNTERS:
        out[name] = counters.get(name, 0)
    nodes = counters.get("atoms.nodes", 0)
    out["atoms.atoms_per_knode"] = 1000 * counters.get("atoms.count", 0) / nodes if nodes else 0.0
    return out


def merge(into: dict, agg: dict) -> None:
    for kind in ("self", "total"):
        for name, value in agg[kind].items():
            into[kind][name] = into[kind].get(name, 0.0) + value


def _rebind(original, replacement) -> None:
    """Point every zslen module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "zslen" and not name.startswith("zslen."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every zslen module."""
    import zslen.atoms
    import zslen.cache
    import zslen.cli
    import zslen.group
    import zslen.invariants
    import zslen.lengths
    import zslen.numerical
    import zslen.sequence
    import zslen.structure_fit
    import zslen.transfer
    import zslen.verify

    def walk_done(result):
        vectors, nodes = result
        tracer.counters["atoms.nodes"] += nodes
        tracer.counters["atoms.count"] += len(vectors)

    def stored(path):
        tracer.counters["cache.bytes"] += os.path.getsize(path)

    def zero_sums(result):
        tracer.counters["sequence.zero_sum_count"] += len(result)

    def h_atoms(result):
        tracer.gauges["transfer.h_atoms"] = len(result)

    def wrap(module, attr, make):
        original = getattr(module, attr)
        _rebind(original, make(original))

    wrap(zslen.group, "tables", lambda f: tracer.spanned(f, "group.tables"))
    wrap(zslen.atoms, "minimal_nonzero_vectors",
         lambda f: tracer.spanned(f, "atoms.walk", walk_done))
    wrap(zslen.cache, "cache_store", lambda f: tracer.spanned(f, "cache.store", stored))
    wrap(zslen.cache, "cache_load", lambda f: tracer.spanned(f, "cache.load"))
    wrap(zslen.sequence, "enumerate_zero_sum",
         lambda f: tracer.spanned(f, "sequence.zero_sum", zero_sums))
    wrap(zslen.lengths, "engine_for", lambda f: tracer.spanned(f, "lengths.engine_lookup"))
    wrap(zslen.invariants, "system", lambda f: tracer.spanned(f, "invariants.system"))
    wrap(zslen.invariants, "delta_of_group", lambda f: tracer.spanned(f, "invariants.delta"))
    wrap(zslen.invariants, "unions_range", lambda f: tracer.spanned(f, "invariants.unions"))
    for attr in ("verify_structure_theorem", "best_aamp"):
        wrap(zslen.structure_fit, attr, lambda f: tracer.spanned(f, "structure_fit.fit"))
    wrap(zslen.structure_fit, "fit_aamp",
         lambda f: tracer.counted(tracer.spanned(f, "structure_fit.fit"), "structure_fit.fits"))
    wrap(zslen.numerical, "accumulated_delta",
         lambda f: tracer.spanned(f, "numerical.accdelta"))
    wrap(zslen.numerical, "num_length_set",
         lambda f: tracer.counted(f, "numerical.length_tables"))
    wrap(zslen.transfer, "check_transfer", lambda f: tracer.spanned(f, "transfer.check"))
    wrap(zslen.transfer, "instance_atoms", lambda f: tracer.counted(f, on_result=h_atoms))
    for attr, suite in VERIFY_SUITES.items():
        wrap(zslen.verify, attr, lambda f, suite=suite: tracer.spanned(f, f"verify.{suite}"))

    seq_cls = zslen.sequence.Sequence
    seq_cls.dense = tracer.counted(seq_cls.dense, "sequence.dense_calls")
    _wrap_lengths_mask(tracer, zslen.lengths.FactorizationEngine)


def _wrap_lengths_mask(tracer: Tracer, engine_cls) -> None:
    """Span only the outermost lengths_mask call of each query.  A query that
    added no memo entry is a warm read; any other is a cold query."""
    original = engine_cls.lengths_mask
    depth = [0]

    @functools.wraps(original)
    def lengths_mask(engine, vec):
        if depth[0]:
            return original(engine, vec)
        tracer.engines[id(engine)] = engine
        before = engine.memo_size
        idx = tracer.begin("lengths.query")
        depth[0] = 1
        try:
            return original(engine, vec)
        finally:
            depth[0] = 0
            tracer.end(idx)
            warm = engine.memo_size == before
            tracer.spans[idx][0] = "lengths.warm_query" if warm else "lengths.cold_query"
            tracer.counters["lengths.queries"] += 1

    engine_cls.lengths_mask = lengths_mask
