"""Set-up, phases and correctness checks of the repository benchmark.

A run builds the serving stack from the fixed data seed (set-up), then
runs three phases against it: ``serve`` (closed-loop micro-batches
through :class:`~repro.serving.service.ScoringService`), ``stream``
(open-loop ingest through :class:`~repro.stream.scorer.StreamScorer`,
a backlog drain and a WAL recovery) and ``investigate``
(:class:`~repro.explain.gnn_explainer.GNNExplainer` plus the hybrid
explainer on flagged communities). The workload picks which phase runs
for ``--seconds``; the other two run a fixed, short probe so that every
end-to-end metric is measured on every workload. Every timed sample is
scaled to reference host speed by the reference kernels run beside it
(see ``speed.py``). Correctness checks run outside the timed regions; a
failed check is a failed operation.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.serving.service as service_module
from repro import nn
from repro.check.invariants import csr_violations, wal_violations
from repro.data import load_dataset
from repro.data.events import export_events
from repro.explain import (
    AnnotatorPanel,
    CommunityWeights,
    ExplainerConfig,
    GNNExplainer,
    HybridExplainer,
    centrality_edge_weights,
    human_edge_importance,
    topk_hit_rate,
)
from repro.graph import SubgraphCache, select_communities
from repro.models import DetectorConfig, XFraudDetectorPlus
from repro.serving import ScoringService, ServiceConfig
from repro.storage import GraphStore, InMemoryKVStore
from repro.stream import (
    DriftConfig,
    EventLog,
    IncrementalGraphBuilder,
    StreamConfig,
    StreamScorer,
)
from repro.train.metrics import roc_auc
from speed import SpeedMeter
from stats import percentile, tail
from tracing import COUNT, PHASE, Recorder, layer_metrics, wrap_cost_s

WORKLOADS = {"serve-cold": "serve", "stream-open": "stream", "investigate": "investigate"}
PHASES = ("serve", "stream", "investigate")
RUNG_GNN = "gnn"


@dataclass
class Phase:
    """Operations attempted and failed in one phase, plus its checks."""

    name: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def error(self, what: str, operations: int = 1) -> None:
        """Record an exception that failed ``operations`` operations."""
        self.attempted += operations
        self.failed += operations
        print(f"[{self.name}] {what} raised:\n{traceback.format_exc()}", file=sys.stderr)

    def check(self, problems: List[str], what: str) -> None:
        """A correctness check: each problem is one failed operation."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])


@dataclass
class Env:
    """Everything set-up builds; the phases only use these objects."""

    bundle: object
    model: XFraudDetectorPlus
    store: InMemoryKVStore
    serve: ScoringService
    events: list
    history: int
    builder: IncrementalGraphBuilder
    stream_service: ScoringService
    scorer: StreamScorer
    wal: EventLog
    wal_dir: str
    recovery_dir: str
    watermark: List[float]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def train(model: XFraudDetectorPlus, bundle, spec: dict) -> None:
    """Mini-batch training on sampled neighbourhoods (detector+'s path)."""
    cfg = spec["setup"]
    data_seed = spec["seeds"]["data"]
    rng = np.random.default_rng(data_seed)
    optimizer = nn.AdamW(model.parameters(), lr=cfg["learning_rate"], weight_decay=1e-4)
    model.train()
    for _ in range(cfg["train_steps"]):
        batch = rng.choice(bundle.train_nodes, cfg["train_batch"], replace=False)
        sampled = model.sampler.sample(bundle.graph, batch)
        optimizer.zero_grad()
        loss = model.loss(sampled.graph, sampled.target_local)
        loss.backward()
        nn.clip_grad_norm(model.parameters(), 0.25)
        optimizer.step()
    model.eval()


def setup(spec: dict, seed: int, wal_dir: str) -> Env:
    """Data generation, KV load, training, stream history and warm-up."""
    data_seed = spec["seeds"]["data"]
    bundle = load_dataset(spec["dataset"]["name"], seed=data_seed, scale=spec["dataset"]["scale"])
    graph = bundle.graph
    model = XFraudDetectorPlus(DetectorConfig(feature_dim=graph.feature_dim, seed=data_seed))
    train(model, bundle, spec)
    prior = float(graph.fraud_rate())

    store = InMemoryKVStore()
    GraphStore(store).save(graph)
    serve_cfg = spec["serve"]
    serve = ScoringService(
        model,
        graph,
        feature_store=store,
        config=ServiceConfig(
            deadline_s=serve_cfg["deadline_s"],
            queue_capacity=serve_cfg["batch_size"],
            static_prior=prior,
            batch_size=serve_cfg["batch_size"],
        ),
        cache=SubgraphCache(capacity=serve_cfg["cache_capacity"]),
    )

    # The stream: the same transactions as a seeded, interleaved event
    # stream. History goes through the builder and the WAL; the rest is
    # the live traffic.
    stream_cfg = spec["stream"]
    events = export_events(bundle.log, interleave_seed=seed)
    history = int(len(events) * stream_cfg["history_fraction"])
    builder = IncrementalGraphBuilder(feature_dim=graph.feature_dim)
    for event in events[:history]:
        builder.apply(event)
    builder.flush()
    for event in events[:history]:
        if event.label >= 0:
            builder.apply_label(event.txn_id, event.label)
    builder.compact()
    shutil.rmtree(wal_dir, ignore_errors=True)
    wal = EventLog(wal_dir, segment_max_bytes=stream_cfg["segment_max_bytes"], fsync=False)
    wal.append_many(events[:history])
    # The recovery workload: a copy of the history WAL, reopened and
    # replayed every round (the live WAL keeps growing).
    recovery_dir = wal_dir + "-history"
    shutil.rmtree(recovery_dir, ignore_errors=True)
    wal.sync()
    shutil.copytree(wal_dir, recovery_dir)
    stream_service = ScoringService(
        model,
        builder.graph,
        config=ServiceConfig(
            deadline_s=stream_cfg["deadline_s"],
            queue_capacity=stream_cfg["queue_capacity"],
            static_prior=prior,
            batch_size=stream_cfg["batch_size"],
        ),
        cache=SubgraphCache(capacity=serve_cfg["cache_capacity"]),
    )
    # Label maturation runs on event time: the clock the scorer reads is
    # the timestamp of the newest event handed to it.
    watermark = [events[history - 1].timestamp]
    scorer = StreamScorer(
        stream_service,
        builder,
        wal=wal,
        config=StreamConfig(
            batch_size=stream_cfg["batch_size"],
            queue_capacity=stream_cfg["queue_capacity"],
            label_delay_s=stream_cfg["label_delay_s"],
            compact_every=stream_cfg["compact_every"],
            drift=DriftConfig(window=64, min_samples=32),
        ),
        clock=lambda: watermark[0],
    )

    # Warm-up: one batch through the serving path, then a cold cache.
    rng = np.random.default_rng([data_seed, 7])
    for _ in range(spec["setup"]["warmup_batches"]):
        targets = rng.choice(graph.txn_nodes, serve_cfg["batch_size"], replace=False)
        serve.score_batch([int(t) for t in targets])
    serve.cache.invalidate()
    return Env(
        bundle=bundle,
        model=model,
        store=store,
        serve=serve,
        events=events,
        history=history,
        builder=builder,
        stream_service=stream_service,
        scorer=scorer,
        wal=wal,
        wal_dir=wal_dir,
        recovery_dir=recovery_dir,
        watermark=watermark,
    )


# ----------------------------------------------------------------------
# Phases. Each runs in ``rounds`` slices interleaved with the others
# (see run()), so every metric samples the whole run rather than one
# stretch of it: on a shared host the machine's speed drifts over
# seconds, and one contiguous window per phase inherits that drift.
# ----------------------------------------------------------------------
def _part(count: int, rounds: int, index: int) -> slice:
    """Round ``index``'s share of ``count`` items, as a slice."""
    return slice(count * index // rounds, count * (index + 1) // rounds)


class ServePhase:
    """Closed loop, one client, micro-batches of distinct txn targets."""

    def __init__(
        self, env: Env, spec: dict, seed: int, seconds: Optional[float], rec: Recorder,
        meter: SpeedMeter,
    ):
        self.env, self.cfg, self.seed, self.seconds, self.rec = env, spec["serve"], seed, seconds, rec
        self.meter = meter
        self.phase = Phase("serve")
        self.rng = np.random.default_rng([seed, 1])
        self.intervals: List[tuple] = []  # (start, end) of every batch
        self.responses: List[tuple] = []  # (node, score) of every response
        self.requests = 0

    def step(self, index: int, rounds: int) -> None:
        cfg, phase = self.cfg, self.phase
        txn_nodes = self.env.bundle.graph.txn_nodes
        share = _part(cfg["probe_batches"], rounds, index)
        batches = 0
        started = time.perf_counter()
        while (
            batches < share.stop - share.start
            if self.seconds is None
            else time.perf_counter() - started < self.seconds / rounds
        ):
            targets = [int(t) for t in self.rng.choice(txn_nodes, cfg["batch_size"], replace=False)]
            self.rec.tag = len(self.intervals)
            batches += 1
            self.meter.tick()
            batch_started = time.perf_counter()
            try:
                responses = self.env.serve.score_batch(targets)
            except Exception:  # one failed batch must not end the run
                phase.error(f"score_batch in round {index}", len(targets))
                continue
            self.intervals.append((batch_started, time.perf_counter()))
            self.requests += len(targets)
            phase.attempted += len(targets)
            phase.failed += sum(1 for r in responses if not r.admitted or r.rung != RUNG_GNN)
            self.responses.extend((r.node, r.score) for r in responses)
        self.meter.tick()

    def finish(self) -> Phase:
        """Checks (untimed, untraced) and metrics."""
        cfg, phase, env = self.cfg, self.phase, self.env
        labels = env.bundle.graph.labels
        self.rec.enabled = False
        check_rng = np.random.default_rng([self.seed, 2])
        picks = check_rng.choice(
            len(self.responses), min(cfg["check_requests"], len(self.responses)), replace=False
        )
        problems = []
        for pick in picks:
            node, score = self.responses[int(pick)]
            fresh = env.serve.score(node)
            if fresh.rung != RUNG_GNN or abs(fresh.score - score) > cfg["score_tolerance"]:
                problems.append(
                    f"node {node}: batched {score!r} vs sequential {fresh.score!r} ({fresh.rung})"
                )
        phase.check(problems, "batched score == sequential score")
        # Quality guard on a fixed set: every labelled test transaction,
        # scored through the same service path.
        test_nodes = [int(n) for n in env.bundle.test_nodes if labels[n] >= 0]
        test_scores = np.array([r.score for r in env.serve.score_batch(test_nodes)])
        self.rec.enabled = True

        raw = [end - start for start, end in self.intervals]
        latencies = [self.meter.scaled(end - start, start, end) for start, end in self.intervals]
        p90, used = tail(latencies, 90)
        phase.metrics = {
            "serve_rps": self.requests / sum(latencies),
            "batch_p50_ms": 1e3 * percentile(latencies, 50),
            "batch_p90_ms": 1e3 * p90,
            "auc": roc_auc(labels[test_nodes], test_scores),
        }
        phase.extra = {
            "batches": len(latencies),
            "tail_percentile": used,
            "raw_serve_rps": self.requests / sum(raw),
            "raw_batch_p50_ms": 1e3 * percentile(raw, 50),
            "raw_batch_p90_ms": 1e3 * tail(raw, 90)[0],
        }
        return phase


class _Verdicts:
    """Matches verdicts to admitted events (FIFO) and times them."""

    def __init__(self, env: Env, phase: Phase, limit_s: float) -> None:
        self.env = env
        self.phase = phase
        self.limit_s = limit_s
        self.pending: deque = deque()  # (event, due or None), admission order
        self.admitted: list = []
        self.intervals: List[tuple] = []  # (due, verdict) of open-loop events
        self.problems: List[str] = []

    def admit(self, event, due: Optional[float]) -> None:
        self.pending.append((event, due))
        self.admitted.append(event)

    def collect(self, responses) -> None:
        now = time.perf_counter()
        for response in responses:
            self.phase.attempted += 1
            if not self.pending:
                self.problems.append(f"verdict for node {response.node} with no event")
                self.phase.failed += 1
                continue
            event, due = self.pending.popleft()
            if response.node != self.env.builder.node_of(event.txn_id):
                self.problems.append(f"verdict for node {response.node} out of order")
            late = due is not None and now - due > self.limit_s
            if not response.admitted or response.rung != RUNG_GNN or late:
                self.phase.failed += 1
            if due is not None:
                self.intervals.append((due, now))


class StreamPhase:
    """Open-loop ingest, stalled-backlog drain and WAL recovery.

    Each round sends its slice of the live events on a fixed schedule,
    then ingests its slice of the backlog at once and drains it
    closed-loop, then reopens and replays the history WAL snapshot taken
    at set-up into a fresh builder. Nothing is due between rounds.
    """

    def __init__(
        self, env: Env, spec: dict, seconds: Optional[float], rec: Recorder, instrument: Callable,
        meter: SpeedMeter,
    ):
        self.env, self.cfg, self.rec, self.instrument = env, spec["stream"], rec, instrument
        self.meter = meter
        cfg = self.cfg
        self.phase = Phase("stream")
        live = env.events[env.history :]
        if seconds is not None:
            sent = min(len(live) - cfg["backlog_events"], int(cfg["rate_eps"] * seconds))
            backlog = cfg["backlog_events"]
        else:
            sent, backlog = cfg["probe_events"], cfg["probe_backlog"]
        self.open = live[:sent]
        self.backlog = live[sent : sent + backlog]
        self.verdicts = _Verdicts(env, self.phase, cfg["latency_limit_ms"] / 1e3)
        self.late: List[float] = []
        self.max_lag = 0
        self.drained = 0
        self.drains: List[tuple] = []  # (start, end) of every backlog drain
        self.recoveries: List[tuple] = []  # (start, end) of every recovery
        self.pumps = 0

    def _ingest(self, event, due: Optional[float]) -> None:
        """Admit one event. A refusal is a failed operation; the scorer
        then pumps one batch and the event is offered again."""
        self.env.watermark[0] = event.timestamp
        while not self.env.scorer.ingest(event):
            self.phase.attempted += 1
            self.phase.failed += 1
            self.verdicts.collect(self.env.scorer.pump(max_batches=1))
        self.verdicts.admit(event, due)

    def step(self, index: int, rounds: int) -> None:
        env, scorer, verdicts = self.env, self.env.scorer, self.verdicts
        self._open_loop(self.open[_part(len(self.open), rounds, index)])

        backlog = self.backlog[_part(len(self.backlog), rounds, index)]
        self.meter.tick()
        started = time.perf_counter()
        for event in backlog:
            self._ingest(event, None)
        while scorer.lag_events:
            verdicts.collect(scorer.pump(max_batches=1))
        self.drains.append((started, time.perf_counter()))
        self.drained += len(backlog)

        for _ in range(self.cfg["recover_repeats"]):
            self.meter.tick()
            started = time.perf_counter()
            self._recover(env.recovery_dir, self.instrument)
            self.recoveries.append((started, time.perf_counter()))
        self.meter.tick()

    def _recover(self, directory: str, instrument: Callable):
        """Reopen a WAL and replay it into a fresh builder."""
        cfg = self.cfg
        with self.rec.span("stream.recover"):
            log = EventLog(directory, segment_max_bytes=cfg["segment_max_bytes"], fsync=False)
            try:
                with self.rec.span("wal.replay") as span:
                    replayed = [event for _, event in log.replay()]
                    if span is not None:
                        span[COUNT] = len(replayed)
                rebuilt = IncrementalGraphBuilder(feature_dim=self.env.builder.feature_dim)
                instrument(rebuilt, "builder")
                for event in replayed:
                    rebuilt.apply(event)
                rebuilt.compact()
            finally:
                log.close()
        return replayed, rebuilt

    def _open_loop(self, events: list) -> None:
        """Admit ``events`` on a fixed schedule and score them.

        Due times are fixed before the first event is sent, at
        ``rate_eps``; an event counts its latency from its due time, so
        a stall of the scorer shows as latency of every event due during
        it, however late the loop got round to admitting them. Each
        pass admits every event that has fallen due, then pumps one
        micro-batch. When the scorer is idle the loop waits for the next
        due time busily: it times reference kernels while that is more
        than ``idle_tick_ms`` away and spins on the clock for the rest.
        The core so stays awake, and the latency measured is the
        program's, not how long the host takes to wake an idle vCPU; the
        kernels also give each verdict the host speed of its own moment
        of the run. Lateness is how far past the due time the loop
        picked up an event it was idle waiting for.
        """
        scorer, verdicts, meter = self.env.scorer, self.verdicts, self.meter
        rate = self.cfg["rate_eps"]
        idle_tick_s = self.cfg["idle_tick_ms"] / 1e3
        meter.tick()
        start = time.perf_counter() + idle_tick_s
        dues = [start + position / rate for position in range(len(events))]
        position = 0
        while position < len(events) or scorer.lag_events:
            if not scorer.lag_events:
                due = dues[position]
                while due - time.perf_counter() > idle_tick_s:
                    meter.tick()
                while time.perf_counter() < due:
                    pass
                self.late.append(time.perf_counter() - due)
            now = time.perf_counter()
            while position < len(events) and dues[position] <= now:
                self._ingest(events[position], dues[position])
                position += 1
            self.max_lag = max(self.max_lag, len(verdicts.pending))
            if scorer.lag_events:
                self.rec.tag = self.pumps
                self.pumps += 1
                verdicts.collect(scorer.pump(max_batches=1))
        meter.tick()

    def finish(self) -> Phase:
        """Checks on the live WAL and graph (untimed, untraced), metrics."""
        env, phase, verdicts = self.env, self.phase, self.verdicts
        env.wal.close()
        self.rec.enabled = False
        phase.check(verdicts.problems, "verdict matches its event")
        phase.check(
            [f"{len(verdicts.pending)} admitted events never got a verdict"]
            if verdicts.pending
            else [],
            "one verdict per admitted event",
        )
        phase.check(wal_violations(env.wal_dir), "wal manifest")
        replayed, rebuilt = self._recover(env.wal_dir, lambda obj, kind: None)
        expected = env.events[: env.history] + verdicts.admitted
        problems = []
        if len(replayed) != len(expected):
            problems.append(f"replayed {len(replayed)} events, ingested {len(expected)}")
        for position, (got, want) in enumerate(zip(replayed, expected)):
            if (got.txn_id, got.timestamp) != (want.txn_id, want.timestamp) or not np.array_equal(
                got.features, want.features
            ):
                problems.append(f"replayed event #{position} differs")
                break
        phase.check(problems, "replay == ingested events")
        phase.check(csr_violations(env.builder.graph), "live graph CSR")
        phase.check(csr_violations(rebuilt.graph), "rebuilt graph CSR")
        phase.check(
            [
                f"{name} differs"
                for name in ("node_type", "edge_src", "edge_dst", "edge_type")
                if not np.array_equal(getattr(env.builder.graph, name), getattr(rebuilt.graph, name))
            ],
            "rebuilt structure == live",
        )
        self.rec.enabled = True

        scaled = self.meter.scaled
        raw = [end - due for due, end in verdicts.intervals]
        latencies = [scaled(end - due, due, end) for due, end in verdicts.intervals]
        p99, used = tail(latencies, 99)
        wal_bytes = sum(
            os.path.getsize(os.path.join(env.wal_dir, name)) for name in os.listdir(env.wal_dir)
        )
        drain_s = sum(scaled(end - start, start, end) for start, end in self.drains)
        phase.metrics = {
            "verdict_p50_ms": 1e3 * percentile(latencies, 50),
            "verdict_p99_ms": 1e3 * p99,
            "catchup_eps": self.drained / drain_s,
            "recover_s": statistics.median(
                scaled(end - start, start, end) for start, end in self.recoveries
            ),
        }
        phase.extra = {
            "late_s": self.late,
            "max_lag_events": self.max_lag,
            "wal_bytes": wal_bytes,
            "tail_percentile": used,
            "sent": len(self.open),
            "backlog": len(self.backlog),
            "raw_verdict_p50_ms": 1e3 * percentile(raw, 50),
            "raw_verdict_p99_ms": 1e3 * tail(raw, 99)[0],
            "raw_catchup_eps": self.drained / sum(end - start for start, end in self.drains),
            "raw_recover_s": statistics.median(end - start for start, end in self.recoveries),
        }
        return phase


class InvestigatePhase:
    """The analyst path: explain flagged communities."""

    def __init__(
        self, env: Env, spec: dict, seed: int, seconds: Optional[float], rec: Recorder,
        instrument: Callable, meter: SpeedMeter,
    ):
        cfg = self.cfg = spec["investigate"]
        data_seed = spec["seeds"]["data"]
        self.env, self.seconds, self.rec, self.meter = env, seconds, rec, meter
        self.phase = Phase("investigate")
        graph = env.bundle.graph
        select = dict(min_edges=cfg["min_edges"], max_hops=cfg["max_hops"])
        # The analyst's queue: fraud-seeded test transactions, fixed by
        # the data seed so hit_rate compares like with like across runs.
        self.flagged = select_communities(
            graph, env.bundle.test_nodes, count=cfg["queue"], seed=data_seed,
            fraud_count=cfg["queue"], **select,
        )
        self.pool = (
            select_communities(graph, env.bundle.test_nodes, count=cfg["pool"], seed=seed, **select)
            if seconds is not None
            else []
        )
        # Mask initialisation belongs to the fixed queue, not the
        # traffic: with a few communities, init noise alone moves
        # hit_rate by ~25%.
        self.explainer = GNNExplainer(env.model, ExplainerConfig(epochs=cfg["epochs"], seed=data_seed))
        instrument(self.explainer, "explainer")
        self.hybrid = HybridExplainer(cfg["coeff_centrality"], 1.0 - cfg["coeff_centrality"], "fixed")
        self.panel = AnnotatorPanel(seed=data_seed)
        self.intervals: List[tuple] = []  # (start, end) of every answer
        self.hit_rates: List[float] = []
        self.problems: List[str] = []

    def step(self, index: int, rounds: int) -> None:
        started = time.perf_counter()
        for community in self.flagged[_part(len(self.flagged), rounds, index)]:
            self._answer(community, in_queue=True)
        # The pool is empty unless this is the workload's own phase.
        while self.pool and time.perf_counter() - started < self.seconds / rounds:
            self._answer(self.pool.pop(0), in_queue=False)

    def _answer(self, community, in_queue: bool) -> None:
        cfg, model = self.cfg, self.env.model
        position = len(self.intervals)
        self.rec.tag = position
        self.meter.tick(self.meter.side)
        started = time.perf_counter()
        try:
            explanation = self.explainer.explain(community.graph, community.seed_local)
            weights = CommunityWeights(
                human={},
                centrality=centrality_edge_weights(community.graph, "edge_betweenness"),
                explainer=explanation.undirected_edge_weights(community.graph),
            )
            combined = self.hybrid.weights(weights)
        except Exception:  # one failed explanation must not end the run
            self.phase.error(f"explanation #{position}")
            return
        self.intervals.append((started, time.perf_counter()))
        self.meter.tick(self.meter.side)
        self.phase.attempted += 1

        self.rec.enabled = False
        masks = (explanation.edge_mask, explanation.node_feature_mask)
        if not all(np.all(np.isfinite(m)) and m.min() >= 0.0 and m.max() <= 1.0 for m in masks):
            self.problems.append(f"explanation #{position}: mask outside [0, 1] or not finite")
        detector_label = int(model.predict_proba(community.graph, [community.seed_local])[0] > 0.5)
        if explanation.predicted_label != detector_label:
            self.problems.append(
                f"explanation #{position}: explained label {explanation.predicted_label} "
                f"!= detector label {detector_label}"
            )
        if in_queue:
            human = human_edge_importance(community, self.panel)
            rates = [
                topk_hit_rate(human, combined, k, draws=cfg["hit_rate_draws"])
                for k in cfg["hit_rate_ks"]
            ]
            self.hit_rates.append(float(np.mean(rates)))
        self.rec.enabled = True

    def finish(self) -> Phase:
        phase = self.phase
        phase.check(self.problems, "explanation masks and label")
        raw = [end - start for start, end in self.intervals]
        durations = [self.meter.scaled(end - start, start, end) for start, end in self.intervals]
        phase.metrics = {
            "explain_p50_s": percentile(durations, 50) if durations else float("nan"),
            "hit_rate": float(np.mean(self.hit_rates)) if self.hit_rates else float("nan"),
        }
        phase.extra = {
            "explanations": len(durations),
            "queue": len(self.flagged),
            "raw_explain_p50_s": percentile(raw, 50) if raw else float("nan"),
        }
        return phase


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _score_outcome(args, responses) -> tuple:
    demoted = sum(1 for r in responses if r.admitted and r.rung != RUNG_GNN)
    shed = sum(1 for r in responses if not r.admitted)
    return (len(args[0]), demoted, shed)


def trace_env(rec: Recorder, env: Env) -> Callable:
    """Wrap the layer entry points of ``env``; returns the hook phases
    use for objects they create themselves (rebuilt builder, explainer)."""

    def instrument(obj, kind: str) -> None:
        if kind == "builder":
            for method in ("apply", "flush", "compact", "apply_label"):
                rec.wrap(obj, method, f"builder.{method}")
        elif kind == "explainer":
            rec.wrap(obj, "explain", "explainer.explain")

    model = env.model
    rec.wrap(
        model.sampler, "sample", "sampler.sample",
        count=lambda args, result: (len(args[1]), len(result.original_ids)),
    )
    rec.wrap(model, "predict_proba", "model.predict_proba", count=lambda args, _: args[0].num_edges)
    rec.wrap(model, "forward", "detector.forward")
    rec.wrap(nn.Tensor, "backward", "tensor.backward")
    rec.wrap(env.store, "get", "store.get", count=lambda _, blob: len(blob))
    rec.wrap(service_module, "_decode_array", "store.decode")
    for service in (env.serve, env.stream_service):
        rec.wrap(service, "score_batch", "service.score_batch", count=_score_outcome)
        rec.wrap(service.cache, "get_or_sample", "cache.get_or_sample")
        rec.wrap(service.cache, "invalidate", "cache.invalidate")
    for method in ("append", "sync", "rotate"):
        rec.wrap(env.wal, method, f"wal.{method}")
    instrument(env.builder, "builder")
    rec.wrap(env.scorer, "ingest", "scorer.ingest", count=lambda _, ok: int(ok))
    rec.wrap(env.scorer, "pump", "scorer.pump", count=lambda _, out: len(out))
    rec.wrap(env.scorer, "mature_labels", "scorer.mature_labels")
    return instrument


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    phases: List[Phase]
    notes: Dict[str, object]


def run(workload: str, seed: int, seconds: float, traced: bool, spec: dict, workdir: str) -> RunResult:
    """Set up, run every phase in interleaved rounds (the workload's own
    phase for ``seconds`` in total), check, and derive the metrics."""
    primary = WORKLOADS[workload]
    repeats, rounds = spec["setup"]["repeats"], spec["rounds"]
    meter = SpeedMeter(spec["speed"]["reference_ms"], spec["speed"]["side"])
    ticks = spec["speed"]["side"]
    setup_intervals: List[tuple] = []

    def timed_setup(directory: str) -> Env:
        meter.tick(ticks)
        started = time.perf_counter()
        built = setup(spec, seed, directory)
        setup_intervals.append((started, time.perf_counter()))
        meter.tick(ticks)
        return built

    env = timed_setup(os.path.join(workdir, "wal"))
    # Freeze the set-up heap, as a long-lived service does after warm-up:
    # full collections then scan only what the run allocates. Otherwise
    # each one stalls the loop for 30-40 ms re-scanning set-up objects,
    # and whether one lands in an open-loop slice decides verdict_p99.
    gc.collect()
    gc.freeze()
    # The other set-ups are timed between rounds and thrown away, so
    # setup_s samples the whole run as the phases do.
    extra_setups = {rounds * k // repeats for k in range(1, repeats)}

    rec = Recorder()
    rec.enabled = traced
    instrument = trace_env(rec, env) if traced else (lambda obj, kind: None)
    runners = {
        "serve": ServePhase(env, spec, seed, seconds if primary == "serve" else None, rec, meter),
        "stream": StreamPhase(
            env, spec, seconds if primary == "stream" else None, rec, instrument, meter
        ),
        "investigate": InvestigatePhase(
            env, spec, seed, seconds if primary == "investigate" else None, rec, instrument, meter
        ),
    }
    wall = dict.fromkeys(PHASES, 0.0)
    try:
        for index in range(rounds):
            if index in extra_setups:
                directory = os.path.join(workdir, f"setup-{index}")
                rec.enabled = False
                spare = timed_setup(directory)
                rec.enabled = traced
                spare.wal.close()
                del spare
                shutil.rmtree(directory, ignore_errors=True)
                shutil.rmtree(directory + "-history", ignore_errors=True)
            for name in PHASES:
                rec.phase = name
                started = time.perf_counter()
                runners[name].step(index, rounds)
                wall[name] += time.perf_counter() - started
        phases = {}
        for name in PHASES:
            rec.phase = name
            phases[name] = runners[name].finish()
    finally:
        gc.unfreeze()
        rec.restore()
        env.serve.close()
        env.stream_service.close()
        shutil.rmtree(env.wal_dir, ignore_errors=True)
        shutil.rmtree(env.recovery_dir, ignore_errors=True)

    setup_times = [end - start for start, end in setup_intervals]
    notes: Dict[str, object] = {"setup_s": setup_times, "speed": meter.mean_factor()}
    if traced:
        extra = {name: phase.extra for name, phase in phases.items()}
        metrics = layer_metrics(rec, primary, extra)
        primary_spans = sum(1 for record in rec.spans if record[PHASE] == primary)
        metrics["trace.spans"] = len(rec.spans)
        metrics["trace.overhead_pct"] = 100.0 * primary_spans * wrap_cost_s() / wall[primary]
        os.makedirs(workdir, exist_ok=True)
        trace_path = os.path.join(workdir, f"trace-{workload}.jsonl")
        rec.write(trace_path)
        notes["trace"] = trace_path
    else:
        metrics = {
            "setup_s": statistics.median(
                meter.scaled(end - start, start, end) for start, end in setup_intervals
            )
        }
        for phase in phases.values():
            metrics.update(phase.metrics)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ordered = [phases[name] for name in PHASES]
    return RunResult(
        correct=all(not phase.problems for phase in ordered),
        attempted=sum(phase.attempted for phase in ordered),
        failed=sum(phase.failed for phase in ordered),
        metrics=metrics,
        phases=ordered,
        notes=notes,
    )
