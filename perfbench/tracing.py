"""Span recording from outside the program, and the per-layer metrics
derived from the spans.

The traced run wraps public objects the program already takes (a
sampler's ``sample``, a cache's ``get_or_sample``, a store's ``get``,
...) with :meth:`Recorder.wrap`. Each call becomes one span: name,
start, end, parent span, the batch/event id current when it opened, and
the benchmark phase. Spans stay in memory and are written once, at the
end of the run. Nothing under ``src/`` is modified; every wrap is undone
by :meth:`Recorder.restore`.

A span's *self time* is its duration minus the durations of its direct
children. All wrapped calls run on the main thread, so children nest
inside their parent without overlapping.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from stats import percentile

# Span record layout (a list, for cheap appends in the hot path).
NAME, START, END, PARENT, TAG, PHASE, COUNT = range(7)


class Recorder:
    """In-memory span log plus the wraps that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.enabled = True
        self.tag = 0
        self.phase = ""
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.tag, self.phase, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = self.clock()

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[list]]:
        """A span opened by the benchmark itself around a layer call."""
        if not self.enabled:
            yield None
            return
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, object], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result)`` stores a per-call quantity on the span
        (targets sampled, bytes read, ...), measured where the work
        happens.
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            index = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            if count is not None:
                recorder.spans[index][COUNT] = count(args, result)
            return result

        own = attr in vars(owner)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "tag", "phase", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def wrap_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call (the traced-minus-
    untraced difference on a no-op), measured where the benchmark runs."""

    class Target:
        def noop(self):
            return None

    target = Target()
    plain = target.noop
    started = time.perf_counter()
    for _ in range(calls):
        plain()
    untraced = time.perf_counter() - started
    recorder = Recorder()
    recorder.wrap(target, "noop", "noop")
    wrapped = target.noop
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - started
    recorder.restore()
    return max(traced - untraced, 0.0) / calls


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
class SpanView:
    """Durations, self times and counts of a subset of spans."""

    def __init__(self, spans: Sequence[list], indices: Sequence[int]) -> None:
        self.spans = spans
        self.indices = list(indices)
        child_time: Dict[int, float] = {}
        for index in self.indices:
            record = spans[index]
            parent = record[PARENT]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + record[END] - record[START]
        self._child_time = child_time

    def named(self, name: str) -> List[list]:
        return [self.spans[i] for i in self.indices if self.spans[i][NAME] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def seconds(self, name: str) -> float:
        return sum(r[END] - r[START] for r in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(
            self.spans[i][END] - self.spans[i][START] - self._child_time.get(i, 0.0)
            for i in self.indices
            if self.spans[i][NAME] == name
        )

    def total(self, name: str, field: int = 0) -> float:
        """Sum of a recorded per-call quantity (``field`` of a tuple)."""
        total = 0.0
        for record in self.named(name):
            value = record[COUNT]
            if isinstance(value, tuple):
                value = value[field]
            total += value or 0
        return total

    def durations(self, name: str) -> List[float]:
        return [r[END] - r[START] for r in self.named(name)]

    def children_of(self, name: str, child: str) -> List[list]:
        parents = {i for i in self.indices if self.spans[i][NAME] == name}
        return [
            self.spans[i]
            for i in self.indices
            if self.spans[i][NAME] == child and self.spans[i][PARENT] in parents
        ]

    def parents_of(self, child: str) -> set:
        return {record[PARENT] for record in self.named(child)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sampling(v: SpanView, extra: dict) -> dict:
    targets = v.total("sampler.sample", 0)
    nodes = v.total("sampler.sample", 1)
    return {
        "sampling.calls": v.calls("sampler.sample"),
        "sampling.ms_per_target": 1e3 * _ratio(v.seconds("sampler.sample"), targets),
        "sampling.nodes_per_target": _ratio(nodes, targets),
    }


def _cache(v: SpanView, extra: dict) -> dict:
    lookups = [i for i in v.indices if v.spans[i][NAME] == "cache.get_or_sample"]
    sampled = v.parents_of("sampler.sample")
    misses = sum(1 for i in lookups if i in sampled)
    return {
        "cache.lookups": len(lookups),
        "cache.hit_ratio": _ratio(len(lookups) - misses, len(lookups)),
        "cache.invalidations": v.calls("cache.invalidate"),
    }


def _storage(v: SpanView, extra: dict) -> dict:
    gets = v.calls("store.get")
    requests = v.total("service.score_batch")
    busy = v.seconds("store.get") + v.seconds("store.decode")
    return {
        "storage.gets": gets,
        "storage.rows_per_request": _ratio(gets, requests),
        "storage.us_per_row": 1e6 * _ratio(busy, gets),
        "storage.bytes_read": v.total("store.get"),
    }


def _forward(v: SpanView, extra: dict) -> dict:
    calls = v.calls("model.predict_proba")
    edges = v.total("model.predict_proba")
    return {
        "forward.calls": calls,
        "forward.edges_per_call": _ratio(edges, calls),
        "forward.us_per_edge": 1e6 * _ratio(v.seconds("model.predict_proba"), edges),
    }


def _explain(v: SpanView, extra: dict) -> dict:
    forwards = v.children_of("explainer.explain", "detector.forward")
    backwards = v.durations("tensor.backward")
    return {
        "explain.forward_ms_per_step": 1e3
        * _ratio(sum(r[END] - r[START] for r in forwards), len(forwards)),
        "explain.backward_ms_per_step": 1e3 * _ratio(sum(backwards), len(backwards)),
    }


def _serving(v: SpanView, extra: dict) -> dict:
    batches = v.calls("service.score_batch")
    return {
        "serving.batches": batches,
        "serving.batch_size_mean": _ratio(v.total("service.score_batch"), batches),
        "serving.overhead_ms_per_batch": 1e3
        * _ratio(v.self_seconds("service.score_batch"), batches),
        "serving.demoted": v.total("service.score_batch", 1),
        "serving.shed": v.total("service.score_batch", 2),
    }


def _wal(v: SpanView, extra: dict) -> dict:
    appends = v.calls("wal.append")
    replayed = v.total("wal.replay")
    return {
        "wal.appends": appends,
        "wal.us_per_append": 1e6 * _ratio(v.seconds("wal.append"), appends),
        "wal.bytes": extra.get("wal_bytes", 0),
        "wal.replay_eps": _ratio(replayed, v.seconds("wal.replay")),
    }


def _builder(v: SpanView, extra: dict) -> dict:
    flushes = v.calls("builder.flush")
    compactions = v.calls("builder.compact")
    return {
        "builder.flushes": flushes,
        "builder.ms_per_flush": 1e3 * _ratio(v.seconds("builder.flush"), flushes),
        "builder.compactions": compactions,
        "builder.ms_per_compaction": 1e3
        * _ratio(v.seconds("builder.compact"), compactions),
    }


def _stream(v: SpanView, extra: dict) -> dict:
    pumps = v.calls("scorer.pump")
    refusals = sum(1 for r in v.named("scorer.ingest") if r[COUNT] == 0)
    return {
        "stream.events_per_pump": _ratio(v.total("scorer.pump"), pumps),
        "stream.max_lag_events": extra.get("max_lag_events", 0),
        "stream.backpressure_refusals": refusals,
        "stream.feedback_ms_per_pump": 1e3
        * _ratio(v.seconds("scorer.mature_labels"), pumps),
    }


def _loadgen(v: SpanView, extra: dict) -> dict:
    late = extra.get("late_s") or [0.0]
    return {
        "loadgen.late_max_ms": 1e3 * max(late),
        "loadgen.late_p99_ms": 1e3 * percentile(late, 99),
    }


#: (span that shows a layer ran on a phase, the layer's metric function)
LAYERS = (
    ("sampler.sample", _sampling),
    ("cache.get_or_sample", _cache),
    ("store.get", _storage),
    ("model.predict_proba", _forward),
    ("explainer.explain", _explain),
    ("service.score_batch", _serving),
    ("wal.append", _wal),
    ("builder.flush", _builder),
    ("scorer.pump", _stream),
    ("scorer.pump", _loadgen),
)


def layer_metrics(
    recorder: Recorder, primary: str, extra: Dict[str, dict]
) -> Dict[str, float]:
    """Per-layer metrics, each measured on the workload's own phase.

    A layer the primary phase never calls is measured on the probe
    phases instead, so every metric exists on every workload. ``extra``
    holds per-phase values measured by the benchmark rather than by a
    span (lateness samples, WAL bytes, the largest backlog).
    """
    spans = recorder.spans
    by_phase: Dict[str, List[int]] = {}
    for index, record in enumerate(spans):
        by_phase.setdefault(record[PHASE], []).append(index)
    primary_view = SpanView(spans, by_phase.get(primary, []))
    metrics: Dict[str, float] = {}
    for marker, derive in LAYERS:
        if primary_view.calls(marker):
            metrics.update(derive(primary_view, extra.get(primary, {})))
            continue
        for phase, indices in by_phase.items():
            view = SpanView(spans, indices)
            if phase != primary and view.calls(marker):
                metrics.update(derive(view, extra.get(phase, {})))
                break
    return metrics
