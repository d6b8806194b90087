"""Quick tests of the benchmark itself (seconds, not benchmark runs)."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench import loadgen
from perfbench.measure import percentile
from perfbench.speed import PacedClock, idle_sampler
from perfbench.tracing import EntryPoint, Span, Tracer, self_times
from perfbench.workloads import (
    CollectFleet,
    ServeMixed,
    TrainEpochs,
    layer_metrics,
    run_workload,
    step_durations,
)
from repro.models import ZeroShotConfig

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "collect-fleet": CollectFleet(databases=2, queries_per_database=10,
                                  max_rows=3_000, oracle_every=3,
                                  warmup_queries=3),
    "train-epochs": TrainEpochs(epochs=2, fleet_databases=2,
                                queries_per_database=10, fleet_max_rows=2_000,
                                imdb_scale=0.05, eval_queries_per_benchmark=7,
                                config=ZeroShotConfig(hidden_dim=16)),
    "serve-mixed": ServeMixed(requests=40, hot_texts=10, imdb_scale=0.05,
                              fleet_databases=2, queries_per_database=10,
                              fleet_max_rows=2_000, train_epochs=1,
                              config=ZeroShotConfig(hidden_dim=16)),
}


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize("q, enough", [(50, 20), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert percentile(list(range(enough - 1)), q) is None
    assert percentile(list(range(enough)), q) == pytest.approx(
        np.percentile(np.arange(enough), q))


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)


# -- self-time arithmetic -----------------------------------------------
def _span(span_id, parent, start, end, name="x", overhead=0.0):
    return Span(span_id, parent, name, "layer", start, end, 0, 0, overhead)


def test_self_time_subtracts_children():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 3.0),
             _span(3, 1, 4.0, 8.0), _span(4, 3, 5.0, 6.0)]
    own = self_times(spans)
    assert own == {1: pytest.approx(4.0), 2: pytest.approx(2.0),
                   3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    # Layer self times add up to the root's wall time.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 2.0, 6.0),
             _span(3, 1, 4.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(2.0)


def test_self_time_leaves_out_the_tracers_overhead_around_children():
    # Each child cost the tracer 0.5 s outside its own interval, inside
    # the parent's.
    spans = [_span(1, 0, 0.0, 10.0, "plan", overhead=0.25),
             _span(2, 1, 1.0, 3.0, "execute", overhead=0.5),
             _span(3, 1, 4.0, 8.0, "execute", overhead=0.5)]
    assert self_times(spans)[1] == pytest.approx(3.0)
    metrics = layer_metrics(spans, Counter(), wall=10.25)
    assert metrics["optimizer.plan_self_s"] == pytest.approx(3.0)
    assert metrics["engine.execute_self_s"] == pytest.approx(6.0)
    # Self time plus overhead covers the wall clock; overhead is charged
    # against the wall clock without it.
    assert metrics["trace.coverage_frac"] == pytest.approx(1.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(1.25 / 9.0)


def test_tracer_overhead_includes_its_calibrated_frame_cost():
    ticks = iter(range(1_000_000))
    tracer = Tracer((EntryPoint("sql", "noop", "x:y"),),
                    clock=lambda: float(next(ticks)))
    tracer.frame_cost = 5.0
    wrapped = tracer.wrap(EntryPoint("sql", "noop", "x:y"), lambda: None)
    tracer.active = True
    wrapped()
    (span,) = tracer.spans
    # Clock reads: entered 0, start 1, end 2, after the span is kept 3.
    assert (span.start, span.end) == (1.0, 2.0)
    assert span.overhead == pytest.approx((1 - 0) + (3 - 2) + 5.0)


def test_calibrated_frame_cost_is_small_and_non_negative():
    cost = Tracer(()).calibrate(calls=500)
    assert 0.0 <= cost < 1e-4


def test_tracer_records_nested_spans_and_restores_entry_points():
    import repro.sql
    from repro.sql import parser

    original = parser.parse_query
    tracer = Tracer((EntryPoint("sql", "parse_query",
                                "repro.sql.parser:parse_query"),))
    with tracer:
        assert repro.sql.parse_query is not original
        repro.sql.parse_query("SELECT COUNT(*) FROM t")     # inactive
        tracer.active = True
        repro.sql.parse_query("SELECT COUNT(*) FROM t")
    assert parser.parse_query is original
    assert repro.sql.parse_query is original
    assert [(s.name, s.layer, s.parent) for s in tracer.spans] == \
        [("parse_query", "sql", 0)]


# -- the paced clock ----------------------------------------------------
def test_paced_clock_scales_work_by_the_reference_and_leaves_it_out():
    fake = _FakeClock()
    speed = {"reference": 0.002}       # seconds one reference takes

    def reference():
        fake.now += speed["reference"]

    clock = PacedClock(every=0.05, window=1, raw=fake, nominal=0.001,
                       reference=reference)
    begin = clock.now()
    fake.now += 0.2                    # work at half the nominal speed
    clock.tick()                       # runs the reference: not counted
    assert clock.now() - begin == pytest.approx(0.1)
    speed["reference"] = 0.001         # the machine speeds up twofold
    fake.now += 0.1
    clock.tick()
    fake.now += 0.1
    assert clock.now() - begin == pytest.approx(0.1 + 0.05 + 0.1)
    assert clock.samples == pytest.approx([0.002, 0.002, 0.001])


def test_paced_clock_samples_only_every_so_often():
    fake = _FakeClock()

    def reference():
        fake.now += 0.001

    clock = PacedClock(every=0.05, raw=fake, nominal=0.001,
                       reference=reference)
    for _ in range(10):
        fake.now += 0.01
        clock.tick()
    assert len(clock.samples) == 1 + 10 // 5


def test_idle_sampler_ticks_halfway_through_every_nth_wait():
    fake = _FakeClock()
    ticks = []

    def reference():
        ticks.append(fake.now)
        fake.now += 0.001

    clock = PacedClock(raw=fake, reference=reference)
    sleep = idle_sampler(clock, every=2, sleep=fake.sleep, now=fake)
    start = fake.now
    for _ in range(4):
        sleep(0.02)
    # The reference ran halfway through the first and third waits, and
    # every wait still ended on time.
    assert [tick - start for tick in ticks[1:]] == pytest.approx([0.01, 0.05])
    assert fake.now - start == pytest.approx(0.08)


# -- open loop ----------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class _Answer:
    def __init__(self, latency):
        self.latency_seconds = latency

    def result(self, timeout):
        return self


def test_open_loop_times_latency_from_the_due_time():
    clock = _FakeClock()

    def submit(item):
        if item == "stall":            # holds the generator for 50 ms
            clock.now += 0.050
        return _Answer(0.004)

    requests = loadgen.open_loop(submit, ["a", "stall", "b", "c"], rate=100,
                                 refused=(), clock=clock, sleep=clock.sleep,
                                 start_delay=0.0)
    loadgen.wait_all(requests, timeout=1.0)
    dues = [request.due - 100.0 for request in requests]
    assert dues == pytest.approx([0.0, 0.01, 0.02, 0.03])
    # "b" was due at 20 ms but went out at 60 ms, behind the stall: its
    # 40 ms lateness is part of its latency.
    assert [r.late for r in requests] == pytest.approx([0, 0, 0.04, 0.03])
    assert [r.latency for r in requests] == pytest.approx(
        [0.004, 0.004, 0.044, 0.034])
    result = loadgen.summarize(requests, rate=100)
    assert result.failed == 0
    assert result.latencies == pytest.approx([0.004, 0.004, 0.044, 0.034])
    assert result.lateness == pytest.approx([0, 0, 0.04, 0.03])


def test_refused_requests_count_as_failed():
    class Refused(Exception):
        pass

    def submit(item):
        raise Refused()

    clock = _FakeClock()
    requests = loadgen.open_loop(submit, ["a"] * 5, rate=10,
                                 refused=(Refused,), clock=clock,
                                 sleep=clock.sleep)
    result = loadgen.summarize(requests, rate=10)
    assert result.failed == 5 and result.latencies == ()


def test_step_durations_skip_the_gap_between_epochs():
    # Epoch at 0: steps end at 1 and 3; validation until the epoch at 5.
    assert step_durations([0.0, 5.0], [1.0, 3.0, 7.0]) == \
        pytest.approx([1.0, 2.0, 2.0])


# -- smoke runs ---------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_checks_out(name, trace):
    result = run_workload(name, seed=3, seconds=1, trace=trace,
                          workload=TINY[name], repeats=2)
    wanted = {m["name"] for m in SPEC["per_layer" if trace
                                      else "end_to_end"]}
    assert wanted <= set(result.metrics)
    assert result.correct, result.outcome.problems
    assert result.outcome.attempted > 0
    assert result.outcome.failed == 0
    if trace:
        assert result.metrics["trace.spans"] > 0
        assert 0 < result.metrics["trace.coverage_frac"] <= 1.0 + 1e-9
    else:
        assert result.metrics["setup_s"] > 0
        assert result.metrics["throughput_per_s"] > 0


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collect-fleet",
         "--seed", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
