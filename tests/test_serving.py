"""Online scoring service: deadlines, breaker, admission, ladder."""

import math

import numpy as np
import pytest

from repro.reliability import (
    ManualClock,
    OutageKVStore,
    RetryPolicy,
    SlowKVStore,
    TransientReadError,
)
from repro.rules.miner import MinerConfig, RuleMiner, RuleSet
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    RUNG_GNN,
    RUNG_PRIOR,
    RUNG_RULES,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    ScoreRequest,
    ScoringService,
    ServiceConfig,
    ServiceStats,
    TokenBucket,
)
from repro.serving.service import _BatchMember, _DeadlineGroup
from repro.storage import GraphStore, InMemoryKVStore


class TestDeadline:
    def test_remaining_counts_down_on_injected_clock(self):
        clock = ManualClock()
        deadline = Deadline(0.1, clock=clock)
        assert deadline.remaining() == pytest.approx(0.1)
        clock.advance(0.04)
        assert deadline.remaining() == pytest.approx(0.06)
        assert not deadline.expired()
        clock.advance(0.07)
        assert deadline.expired()

    def test_check_raises_typed_error_with_stage(self):
        clock = ManualClock()
        deadline = Deadline(0.01, clock=clock)
        deadline.check("sampling hop 0")  # within budget: no raise
        clock.advance(0.02)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("feature fetch")
        assert excinfo.value.stage == "feature fetch"
        assert excinfo.value.elapsed_s == pytest.approx(0.02)

    def test_never_expires(self):
        clock = ManualClock()
        deadline = Deadline.never(clock=clock)
        clock.advance(1e9)
        deadline.check("anything")
        assert not deadline.expired()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(float("nan"))


class TestDeadlineGroup:
    def test_check_reads_the_clock_for_the_earliest_member_only(self):
        clock = ManualClock()
        reads = []

        def counting_clock():
            reads.append(1)
            return clock()

        members = [
            _BatchMember(
                ScoreRequest(node=i),
                Deadline(0.01 * (i + 1), clock=counting_clock, started=0.0),
            )
            for i in reversed(range(64))
        ]
        hits = []
        group = _DeadlineGroup(members, on_expire=hits.append)
        for _ in range(10):
            group.check("sampling hop 0")
        assert len(reads) == 10  # one read per check, not one per member
        clock.advance(0.025)  # budgets 0.01 and 0.02 are spent
        del reads[:]
        group.check("feature fetch")
        assert len(reads) == 3
        expired = [m for m in members if not m.live]
        assert sorted(m.request.node for m in expired) == [0, 1]
        assert {m.degraded_reason for m in expired} == {"deadline:feature fetch"}
        assert hits == expired[::-1]  # demoted in expiry order

    def test_raises_once_every_member_is_spent(self):
        clock = ManualClock()
        members = [
            _BatchMember(ScoreRequest(node=i), Deadline(budget, clock=clock, started=0.0))
            for i, budget in enumerate((0.02, 0.01))
        ]
        group = _DeadlineGroup(members, on_expire=lambda member: None)
        clock.advance(0.03)
        with pytest.raises(DeadlineExceeded) as excinfo:
            group.check("model forward")
        assert excinfo.value.budget_s == pytest.approx(0.02)
        assert excinfo.value.elapsed_s == pytest.approx(0.03)
        assert [m.degraded_reason for m in members] == ["deadline:model forward"] * 2


class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        kwargs = dict(
            failure_threshold=0.5,
            window=4,
            min_calls=2,
            cooldown_s=1.0,
            half_open_probes=2,
            clock=clock,
        )
        kwargs.update(overrides)
        return CircuitBreaker(**kwargs)

    def test_closed_to_open_on_failure_rate(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            with pytest.raises(TransientReadError):
                breaker.call(self._boom)
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_half_open_probe_success_closes(self):
        clock = ManualClock()
        breaker = self._breaker(clock, half_open_probes=1)
        for _ in range(2):
            with pytest.raises(TransientReadError):
                breaker.call(self._boom)
        clock.advance(1.5)  # cool-down elapses
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == CLOSED
        assert breaker.transition_path() == (CLOSED, OPEN, HALF_OPEN, CLOSED)

    def test_half_open_probe_failure_reopens(self):
        clock = ManualClock()
        breaker = self._breaker(clock, half_open_probes=1)
        for _ in range(2):
            with pytest.raises(TransientReadError):
                breaker.call(self._boom)
        clock.advance(1.5)
        with pytest.raises(TransientReadError):
            breaker.call(self._boom)
        assert breaker.state == OPEN
        # Re-opened: the cool-down restarts from the probe failure.
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "nope")

    def test_successes_keep_breaker_closed(self):
        clock = ManualClock()
        breaker = self._breaker(clock)
        for _ in range(10):
            breaker.call(lambda: 1)
        with pytest.raises(TransientReadError):
            breaker.call(self._boom)
        assert breaker.state == CLOSED  # one failure in the window is below 50%

    def test_transitions_are_reported(self):
        clock = ManualClock()
        seen = []
        breaker = CircuitBreaker(
            min_calls=1,
            window=2,
            cooldown_s=0.1,
            half_open_probes=1,
            clock=clock,
            on_transition=lambda a, b: seen.append((a, b)),
        )
        with pytest.raises(TransientReadError):
            breaker.call(self._boom)
        clock.advance(0.2)
        breaker.call(lambda: "ok")
        assert seen == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    @staticmethod
    def _boom():
        raise TransientReadError("injected")


class TestAdmission:
    def test_token_bucket_limits_and_refills(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # burst spent
        clock.advance(0.1)  # 1 token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_queue_sheds_when_full(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.offer("a") == (True, None)
        assert queue.offer("b") == (True, None)
        assert queue.offer("c") == (False, SHED_QUEUE_FULL)
        assert queue.take() == "a"
        assert queue.offer("c") == (True, None)

    def test_queue_sheds_on_rate_limit(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, capacity=1.0, clock=clock)
        queue = AdmissionQueue(capacity=10, bucket=bucket)
        assert queue.offer("a") == (True, None)
        assert queue.offer("b") == (False, SHED_RATE_LIMITED)

    def test_full_queue_sheds_before_spending_a_token(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, capacity=1.0, clock=clock)
        queue = AdmissionQueue(capacity=1, bucket=bucket)
        assert queue.offer("a") == (True, None)
        assert queue.offer("b") == (False, SHED_QUEUE_FULL)
        # The token the full queue rejected is still available.
        assert queue.take() == "a"
        with pytest.raises(IndexError):
            queue.take()


class TestServiceStats:
    def test_latency_percentiles_and_describe(self):
        stats = ServiceStats()
        for latency in [0.01, 0.02, 0.03, 0.04]:
            stats.record_response(RUNG_GNN, latency)
        summary = stats.latency_summary()
        # Nearest-rank: p50 of 4 samples is the 2nd, an observed value.
        assert summary["p50"] == pytest.approx(0.02)
        assert "p95=" in stats.describe()

    def test_auc_is_nan_not_error_on_single_class(self):
        stats = ServiceStats()
        stats.record_outcome(0, 0.1)
        stats.record_outcome(0, 0.2)
        assert math.isnan(stats.auc())
        assert math.isnan(ServiceStats().auc())

    def test_breaker_state_path(self):
        stats = ServiceStats()
        stats.record_breaker_transition(CLOSED, OPEN)
        stats.record_breaker_transition(OPEN, HALF_OPEN)
        assert stats.breaker_state_path() == (CLOSED, OPEN, HALF_OPEN)


@pytest.fixture(scope="module")
def mined_rules(tiny_log):
    rules = RuleMiner(MinerConfig(seed=0)).fit(
        tiny_log.feature_matrix(), tiny_log.labels()
    )
    assert len(rules) >= 1  # the ladder needs a live middle rung
    return rules


@pytest.fixture()
def feature_kv(tiny_graph):
    store = InMemoryKVStore()
    GraphStore(store).save(tiny_graph)
    return store


def _txn_nodes(graph, count=4):
    return [int(n) for n in np.flatnonzero(graph.labels >= 0)[:count]]


class TestScoringService:
    def test_gnn_rung_matches_sampled_prediction_shape(
        self, trained_detector, tiny_graph
    ):
        service = ScoringService(trained_detector, tiny_graph)
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert response.admitted
        assert response.rung == RUNG_GNN
        assert 0.0 <= response.score <= 1.0
        assert response.verdict in ("fraud", "legit")
        assert service.stats.rungs[RUNG_GNN] == 1

    def test_kv_backed_scoring_matches_in_memory(
        self, trained_detector, tiny_graph, feature_kv
    ):
        node = _txn_nodes(tiny_graph, 1)[0]
        direct = ScoringService(trained_detector, tiny_graph).score(node)
        kv_backed = ScoringService(
            trained_detector, tiny_graph, feature_store=feature_kv
        ).score(node)
        assert kv_backed.rung == RUNG_GNN
        # The sampler RNG advances between calls, so compare loosely:
        # the KV-hydrated features are bitwise the in-memory ones.
        assert 0.0 <= kv_backed.score <= 1.0
        assert direct.rung == RUNG_GNN

    def test_rate_limit_sheds_with_prior_verdict(self, trained_detector, tiny_graph):
        clock = ManualClock()
        config = ServiceConfig(rate=1.0, burst=1.0, static_prior=0.01)
        service = ScoringService(
            trained_detector, tiny_graph, config=config, clock=clock
        )
        nodes = _txn_nodes(tiny_graph, 2)
        first = service.score(nodes[0])
        second = service.score(nodes[1])
        assert first.admitted
        assert not second.admitted
        assert second.shed_reason == SHED_RATE_LIMITED
        assert second.rung == RUNG_PRIOR
        assert second.score == pytest.approx(0.01)
        assert second.verdict == "legit"
        assert service.stats.total_shed == 1

    def test_queue_burst_sheds_beyond_capacity(self, trained_detector, tiny_graph):
        config = ServiceConfig(queue_capacity=2)
        service = ScoringService(trained_detector, tiny_graph, config=config)
        nodes = _txn_nodes(tiny_graph, 4)
        shed = [service.submit(n) for n in nodes]
        rejected = [s for s in shed if s is not None]
        assert len(rejected) == 2
        assert all(r.shed_reason == SHED_QUEUE_FULL for r in rejected)
        responses = service.drain()
        assert len(responses) == 2
        assert all(r.admitted for r in responses)

    def test_kv_outage_degrades_to_rules_not_error(
        self, trained_detector, tiny_graph, feature_kv, mined_rules
    ):
        clock = ManualClock()
        store = OutageKVStore(feature_kv, windows=[(0, 10_000)])
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            breaker_min_calls=2,
            breaker_window=4,
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            rules=mined_rules,
            config=config,
            clock=clock,
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        request = ScoreRequest(node=node, features=tiny_graph.txn_features[node])
        response = service.score(request)
        assert response.admitted
        assert response.rung == RUNG_RULES
        assert response.degraded_reason == "kv_unavailable"
        assert service.stats.kv_failures == 1
        assert service.stats.kv_retries == 1

    def test_kv_outage_without_rules_falls_to_prior(
        self, trained_detector, tiny_graph, feature_kv
    ):
        clock = ManualClock()
        store = OutageKVStore(feature_kv, windows=[(0, 10_000)])
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=1), static_prior=0.07
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            rules=RuleSet(),  # empty: middle rung unavailable
            config=config,
            clock=clock,
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert response.rung == RUNG_PRIOR
        assert response.score == pytest.approx(0.07)

    def test_truncated_row_demotes_to_kv_unavailable_after_retries(
        self, trained_detector, tiny_graph, feature_kv, mined_rules
    ):
        nodes = _txn_nodes(tiny_graph, 2)
        for node in nodes:
            feature_kv.put(f"feat/{node}", feature_kv.get(f"feat/{node}")[:-8])
        config = ServiceConfig(retry=RetryPolicy(max_attempts=3, base_delay=0.001))

        def service():
            return ScoringService(
                trained_detector,
                tiny_graph,
                feature_store=feature_kv,
                rules=mined_rules,
                config=config,
                clock=ManualClock(),
            )

        single = service()
        response = single.score(
            ScoreRequest(node=nodes[0], features=tiny_graph.txn_features[nodes[0]])
        )
        assert response.rung == RUNG_RULES
        assert response.degraded_reason == "kv_unavailable"
        assert single.stats.kv_retries == 2
        assert single.stats.kv_failures == 1
        batched = service()
        responses = batched.score_batch(
            [ScoreRequest(node=n, features=tiny_graph.txn_features[n]) for n in nodes]
        )
        assert [r.rung for r in responses] == [RUNG_RULES, RUNG_RULES]
        assert {r.degraded_reason for r in responses} == {"kv_unavailable"}
        assert batched.stats.rungs.get(RUNG_GNN, 0) == 0

    def test_transient_blips_are_absorbed_by_retries(
        self, trained_detector, tiny_graph, feature_kv
    ):
        from repro.reliability import FlakyKVStore

        clock = ManualClock()
        store = FlakyKVStore(feature_kv, fail_first=1)
        # fail_first faults the first read of *each key*, so fetch one
        # row per breaker call: every chunk fails once, then succeeds.
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0001), fetch_chunk=1
        )
        service = ScoringService(
            trained_detector,
            tiny_graph,
            feature_store=store,
            config=config,
            clock=clock,
        )
        node = _txn_nodes(tiny_graph, 1)[0]
        response = service.score(node)
        assert response.rung == RUNG_GNN  # retried through, no degradation
        assert service.stats.kv_retries > 0
        assert service.breaker.state == CLOSED

    def test_invalid_node_rejected(self, trained_detector, tiny_graph):
        service = ScoringService(trained_detector, tiny_graph)
        with pytest.raises(ValueError):
            service.score(tiny_graph.num_nodes + 5)

    def test_context_manager_closes_owned_store(self, trained_detector, tiny_graph):
        class ClosableStore(InMemoryKVStore):
            closed = False

            def close(self):
                self.closed = True

        store = ClosableStore()
        GraphStore(store).save(tiny_graph)
        with ScoringService(
            trained_detector, tiny_graph, feature_store=store, own_store=True
        ) as service:
            node = _txn_nodes(tiny_graph, 1)[0]
            assert service.score(node).admitted
        assert store.closed

    def test_labeled_outcomes_feed_online_auc(self, trained_detector, tiny_graph):
        service = ScoringService(trained_detector, tiny_graph)
        fraud = [int(n) for n in np.flatnonzero(tiny_graph.labels == 1)[:3]]
        legit = [int(n) for n in np.flatnonzero(tiny_graph.labels == 0)[:3]]
        service.score_batch(fraud + legit)
        auc = service.stats.auc()
        assert not math.isnan(auc)
        assert 0.0 <= auc <= 1.0
