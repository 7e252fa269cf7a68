"""Tests for the benchmark itself: quantile rule, tail selection, the
declared metric names, span derivation, exit codes, and a tiny-size
smoke run of every workload, untraced and traced."""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import run as runner
import stats
from repro.util import nearest_rank_index
from speed import SpeedMeter
from tracing import Recorder, SpanView

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _spec():
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_percentile_is_the_repo_nearest_rank_rule():
    assert stats.nearest_rank_index is nearest_rank_index
    rng = np.random.default_rng(0)
    for count in (1, 2, 7, 100, 1001):
        values = rng.random(count)
        ordered = np.sort(values)
        for pct in (0, 1, 50, 90, 99, 100):
            assert stats.percentile(values, pct) == ordered[nearest_rank_index(pct, count)]


@pytest.mark.parametrize("nominal", [90.0, 99.0])
def test_tail_is_highest_percentile_with_ten_beyond(nominal):
    for count in range(1, 3001):
        pct = stats.tail_percentile(nominal, count)
        if pct == 50.0:
            # The median fallback: no percentile above it keeps ten beyond.
            assert count - 1 - nearest_rank_index(50.01, count) < stats.MIN_BEYOND
            continue
        beyond = count - 1 - nearest_rank_index(pct, count)
        assert beyond >= stats.MIN_BEYOND, (count, pct)
        assert pct <= nominal
        if pct < nominal:
            higher = round(pct + 0.01, 2)
            assert count - 1 - nearest_rank_index(higher, count) < stats.MIN_BEYOND, (count, pct)


def test_tail_examples():
    assert stats.tail_percentile(99, 2000) == 99.0
    assert stats.tail_percentile(99, 500) == 98.0
    assert stats.tail_percentile(90, 45) == 77.77
    assert stats.tail_percentile(90, 16) == 50.0
    value, used = stats.tail(list(range(100)), 90)
    assert used == 90.0 and value == 89


def test_metric_and_workload_names():
    declared = _declared()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert set(bench.WORKLOADS) == {w["name"] for w in declared["workloads"]}
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    # Every per-layer metric is in the prediction map, and nothing else is.
    per_layer = {m["name"] for m in declared["per_layer"]}
    predicted = [name for row in _spec()["predictions"] for name in row["metrics"]]
    assert sorted(predicted) == sorted(per_layer)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    for row in _spec()["predictions"]:
        assert set(row["moves"]) == set(bench.WORKLOADS)
        for moved in row["moves"].values():
            assert set(moved) <= end_to_end


def test_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 3

    clock = iter([0.0, 1.0, 3.0, 10.0]).__next__
    rec = Recorder(clock=clock)
    layer = Layer()
    rec.wrap(layer, "inner", "inner", count=lambda args, result: result)
    rec.wrap(layer, "outer", "outer")
    assert layer.outer() == 3
    view = SpanView(rec.spans, range(len(rec.spans)))
    assert view.seconds("outer") == 10.0
    assert view.self_seconds("outer") == 8.0
    assert view.total("inner") == 3
    rec.restore()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)


def test_speed_factor_uses_the_kernels_beside_a_sample():
    meter = SpeedMeter(reference_ms=2.0, side=1)
    meter.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    meter.seconds = [0.002, 0.004, 0.006, 0.008, 0.010]
    # The kernel inside [1.5, 2.5] (6 ms) and the nearest on each side (4, 8 ms).
    assert meter.factor(1.5, 2.5) == pytest.approx(3.0)
    # No kernel inside: the one before (8 ms) and the one after (10 ms).
    assert meter.factor(3.5, 4.0) == pytest.approx(4.5)
    assert meter.scaled(0.9, 3.5, 4.0) == pytest.approx(0.2)
    # After the last kernel: only that one.
    assert meter.factor(11.0, 12.0) == pytest.approx(5.0)
    meter.side = 2
    assert meter.factor(3.5, 4.0) == pytest.approx(((6 + 8 + 10) / 3) / 2)
    with pytest.raises(ValueError):
        SpeedMeter(reference_ms=1.0, side=1).factor(0.0, 1.0)


def _tiny_spec():
    spec = copy.deepcopy(_spec())
    spec["dataset"]["scale"] = 0.3
    spec["setup"].update(repeats=1, train_steps=2, train_batch=32)
    spec["serve"].update(batch_size=16, probe_batches=2, check_requests=4)
    spec["stream"].update(
        rate_eps=1000, backlog_events=16, probe_events=24, probe_backlog=8, recover_repeats=1
    )
    spec["investigate"].update(queue=1, pool=1, epochs=3, hit_rate_draws=5)
    return spec


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_smoke_run(workload, traced, tmp_path):
    result = bench.run(workload, 1, 0.2, traced, _tiny_spec(), str(tmp_path / "work"))
    assert result.correct, [p for phase in result.phases for p in phase.problems]
    assert result.failed == 0 and result.attempted > 0
    declared = _declared()["per_layer" if traced else "end_to_end"]
    assert set(result.metrics) == {m["name"] for m in declared}
    assert all(np.isfinite(v) for v in result.metrics.values())
    assert not os.path.exists(tmp_path / "work" / "wal")


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    declared = _declared()["end_to_end"]
    failing = bench.RunResult(
        correct=False,
        attempted=3,
        failed=1,
        metrics={m["name"]: 1.0 for m in declared},
        phases=[bench.Phase("serve", attempted=3, failed=1, problems=["check: broken"])],
        notes={"setup_s": [1.0], "speed": 1.0},
    )
    monkeypatch.setattr(bench, "run", lambda *args, **kwargs: failing)
    code = runner.main(["--workload", "serve-cold", "--seed", "1", "--seconds", "1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert json.loads(last)["correct"] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
