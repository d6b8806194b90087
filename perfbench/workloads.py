"""The benchmark's workloads and the run protocol they share.

Each workload is a frozen dataclass of its sizes with three steps:

* ``setup(seed)`` builds every input from the seed (and fixed recipes)
  and warms what users would find warm;
* ``run(state, tracer)`` performs the timed work, checks the outputs
  outside the timed region, and returns an :class:`Outcome`;
* ``close(state)`` stops anything ``setup`` started.

:func:`run_workload` repeats the set-up ``setup_repeats`` times, some
before and some after the timed region, and reports the median as
``setup_s``; it runs the timed region once, untraced (end-to-end
metrics) or traced (per-layer metrics).  See
``perfbench/README.md`` for what each workload and metric means.

Set-ups, and the timed region of the closed-loop workloads
(``paced_run``), are read on a :class:`~perfbench.speed.PacedClock`:
process CPU time scaled to a reference machine's speed, so the shared
machine's slow phases cancel out.  That work is single-threaded and
CPU-bound, and CPU time leaves out the time the process waited for a
processor.  serve-mixed reads its batcher's time on the thread's own CPU
clock and latency in wall time from each request's due time, and scales
both by the reference its generator thread times between requests.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar

import numpy as np

from perfbench import loadgen
from perfbench.measure import median, peak_rss_mb, percentile
from perfbench.speed import (
    IN_CACHE_SECONDS,
    PacedClock,
    idle_sampler,
    paced,
    reference_in_cache,
)
from perfbench.tracing import EntryPoint, Span, Tracer, self_times
from repro.db import generate_training_database_specs, make_imdb_database
from repro.engine import Executor
from repro.errors import Overloaded
from repro.experiments.setup import ExperimentScale
from repro.featurize.graph import CardinalitySource
from repro.models import TrainerConfig, ZeroShotConfig, ZeroShotEstimator
from repro.models.metrics import q_error
from repro.plans.explain import explain_plan
from repro.plans.plan import walk_plan
from repro.serve import CostModelService, PredictionServer
from repro.sql import query_to_sql
from repro.workload import (
    BENCHMARK_NAMES,
    WorkloadRunner,
    collect_training_corpus_from_specs,
    make_benchmark_workload,
)
from repro.workload.backends import SerialBackend, make_corpus_shards

__all__ = ["CPU_CLOCK", "CollectFleet", "Outcome", "Result", "SHAPE",
           "ServeMixed", "TrainEpochs", "WORKLOADS", "layer_metrics",
           "probe", "run_workload", "step_durations"]

#: Clock of a traced run's probes and of a timed region that is not
#: paced.
CPU_CLOCK: Callable[[], float] = time.process_time
#: Seeds of the fixed recipes: the fleet's database specs, random
#: indexes and queries (and train-epochs' and serve-mixed's training
#: corpus); the unseen IMDB instance, train-epochs' evaluation workload
#: and serve-mixed's SQL texts.  Fixed so a run's figures measure the
#: code rather than the luck of one draw; the run seed draws
#: collect-fleet's runtime noise, train-epochs' initial weights and
#: batch order, and serve-mixed's request stream.
FLEET_SEED = 0
IMDB_SEED = 17
#: The repository's default experiment shape: the training fleet's row
#: range, random indexes and label noise, the model configuration and
#: its mini-batch size (also the serving batch size).
SHAPE = ExperimentScale.default()
BATCH_SIZE = SHAPE.zero_shot_trainer.batch_size
#: serve-mixed's request mix and server settings.
MISS_FRACTION = 0.1
MAX_WAIT_MS = 2.0
ENCODE_CACHE_ENTRIES = 512
#: Bound on every wait for a served answer.
WAIT_SECONDS = 120.0


@dataclass
class Outcome:
    """What one timed region did, measured and checked."""

    attempted: int
    failed: int
    wall: float                      #: seconds the tracer was active for
    metrics: dict[str, float | None]
    digest: str
    problems: list[str] = field(default_factory=list)
    #: Per-layer metrics only the workload itself can compute.
    layer: dict[str, float | None] = field(default_factory=dict)
    #: The workload's own named figures (name -> (value, unit)), printed
    #: beside the metrics every workload reports.
    figures: dict[str, tuple[float | None, str]] = field(default_factory=dict)


@dataclass
class Result:
    """One benchmark run: the outcome plus set-up and memory figures."""

    outcome: Outcome
    metrics: dict[str, float | None]
    tracer: Tracer | None

    @property
    def correct(self) -> bool:
        return not self.outcome.problems


@contextmanager
def active(tracer: Tracer | None):
    """Record spans for the duration of the block (no-op untraced)."""
    if tracer is None:
        yield
        return
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False


@contextmanager
def probe(target: str, clock: Callable[[], float] = CPU_CLOCK):
    """Time every call of ``target`` (``"module:Class.method"``) on
    ``clock`` for the duration of the block; yields the list the
    calls' spans are appended to."""
    name = target.rpartition(".")[2]
    tracer = Tracer((EntryPoint("probe", name, target),), clock=clock)
    tracer.install()
    tracer.active = True
    try:
        yield tracer.spans
    finally:
        tracer.uninstall()


def operation_metrics(count: int, seconds: float,
                      latencies: list[float]) -> dict[str, float | None]:
    """The end-to-end metrics every workload reports about its unit of
    work: operations per second and median latency."""
    return {"throughput_per_s": count / seconds if seconds else 0.0,
            "latency_p50_ms": _ms(percentile(latencies, 50))}


def tail_figure(latencies: list[float], tail: int
                ) -> dict[str, tuple[float | None, str]]:
    """The highest percentile the sample count supports, with the count."""
    return {f"latency_p{tail}_ms": (_ms(percentile(latencies, tail)), "ms"),
            "latency_samples": (float(len(latencies)), "count")}


def fleet_specs(databases: int, max_rows: int):
    """The first ``databases`` specs of the fixed database fleet."""
    return generate_training_database_specs(
        databases, base_seed=FLEET_SEED, min_rows=SHAPE.training_db_min_rows,
        max_rows=max_rows)


def fixed_corpus(databases: int, queries_per_database: int, max_rows: int):
    """The fixed training corpus of train-epochs and serve-mixed."""
    return collect_training_corpus_from_specs(
        fleet_specs(databases, max_rows), queries_per_database,
        seed=FLEET_SEED,
        random_indexes_per_database=SHAPE.random_indexes_per_database,
        noise_sigma=SHAPE.training_noise_sigma)


# ----------------------------------------------------------------------
# collect-fleet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CollectFleet:
    """Closed loop, one caller: ``SerialBackend.run`` over one shard at
    a time, database hydration included, at the default experiment
    shape."""

    databases: int
    queries_per_database: int = 100
    max_rows: int = SHAPE.training_db_max_rows
    #: Every n-th collected query is re-executed by the oracle.
    oracle_every: int = 25
    warmup_queries: int = 50
    tail: ClassVar[int] = 99
    setup_repeats: ClassVar[int] = 7
    paced_run: ClassVar[bool] = True
    #: The reference that tracked collection through the machine's
    #: phases (:func:`~perfbench.speed.reference_in_cache`).
    pace_with: ClassVar[dict[str, Any]] = {"reference": reference_in_cache,
                                           "nominal": IN_CACHE_SECONDS}
    #: The traced run fails its check when layer self times cover less
    #: than this share of the timed wall clock.
    coverage_gate: ClassVar[float] = 0.9

    @classmethod
    def sized(cls, seconds: int) -> "CollectFleet":
        # 1,000 queries at 20 s: enough for a p99.
        return cls(databases=max(1, seconds // 2))

    def _shards(self, databases: int, queries: int, seed: int,
                max_rows: int):
        """Shards of the fixed fleet: databases, random indexes and
        queries are fixed recipes; ``seed`` draws each shard's runtime
        noise.  A few grouped aggregates over large joins dominate the
        cost, so drawing the queries from the seed moved throughput by a
        third from seed to seed."""
        def shards(shard_seed: int):
            return make_corpus_shards(
                fleet_specs(databases, max_rows), queries, seed=shard_seed,
                random_indexes_per_database=SHAPE.random_indexes_per_database,
                noise_sigma=SHAPE.training_noise_sigma)

        return [replace(fixed, runner_seed=drawn.runner_seed)
                for fixed, drawn in zip(shards(FLEET_SEED), shards(seed))]

    def setup(self, seed: int):
        # One small shard first, so lazy imports and first-call costs
        # land in set-up rather than in the first timed shard.
        SerialBackend().run(self._shards(1, self.warmup_queries, FLEET_SEED,
                                         max_rows=20_000))
        return self._shards(self.databases, self.queries_per_database, seed,
                            self.max_rows)

    def close(self, state) -> None:
        pass

    def run(self, shards, tracer: Tracer | None,
            clock: Callable[[], float]) -> Outcome:
        backend = SerialBackend()
        digest = hashlib.sha256()
        problems: list[str] = []
        busy = wall = 0.0
        collected = failed = 0
        with probe("repro.workload.runner:WorkloadRunner.run_query",
                   clock) as per_query:
            for shard in shards:
                with active(tracer):
                    started, cpu = time.perf_counter(), clock()
                    execution = backend.run([shard])[0]
                    busy += clock() - cpu
                    wall += time.perf_counter() - started
                failed += self._check(execution, collected, digest, problems)
                collected += len(execution.records)
        latencies = [span.duration for span in per_query]
        return Outcome(attempted=collected, failed=failed, wall=wall,
                       metrics=operation_metrics(collected, busy, latencies),
                       figures={"collect_qps": (collected / busy, "1/s"),
                                **tail_figure(latencies, self.tail)},
                       digest=digest.hexdigest(), problems=problems)

    def _check(self, execution, offset: int, digest, problems) -> int:
        """Label checks, the digest, and the oracle on a fixed sample."""
        oracle = Executor(execution.database, compile_filters=False)
        bad = 0
        for number, record in enumerate(execution.records, start=offset):
            digest.update(explain_plan(record.plan).encode())
            digest.update(repr((record.operator_cardinalities,
                                record.runtime_seconds)).encode())
            nodes = len(list(walk_plan(record.plan.root)))
            if not (math.isfinite(record.runtime_seconds)
                    and record.runtime_seconds > 0):
                problems.append(f"query {number}: runtime label "
                                f"{record.runtime_seconds!r}")
            elif len(record.operator_cardinalities) != nodes:
                problems.append(f"query {number}: "
                                f"{len(record.operator_cardinalities)} "
                                f"cardinalities for {nodes} plan nodes")
            elif number % self.oracle_every == 0:
                oracle.execute(record.plan)
                rows = tuple(float(node.actual_rows)
                             for node in walk_plan(record.plan.root))
                if rows == record.operator_cardinalities:
                    continue
                problems.append(f"query {number}: row counts differ from "
                                f"the interpreted executor")
            else:
                continue
            bad += 1
        return bad


# ----------------------------------------------------------------------
# train-epochs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainEpochs:
    """Closed loop, one caller: featurize the corpus, ``fit_graphs`` for
    a fixed epoch count (early stopping off), then predict an unseen
    IMDB workload executed in set-up.  The corpus and the evaluation
    workload are fixed recipes; the seed draws the model's initial
    weights and the trainer's split and batch order."""

    epochs: int
    fleet_databases: int = 5
    queries_per_database: int = 60
    #: Small databases keep the three set-ups cheap; a step's cost
    #: depends on the plans' shapes, not on the tables' sizes.
    fleet_max_rows: int = 15_000
    imdb_scale: float = SHAPE.imdb_scale
    eval_queries_per_benchmark: int = 70
    config: ZeroShotConfig = SHAPE.zero_shot_config
    tail: ClassVar[int] = 95
    setup_repeats: ClassVar[int] = 3
    paced_run: ClassVar[bool] = True

    @classmethod
    def sized(cls, seconds: int) -> "TrainEpochs":
        return cls(epochs=max(2, 3 * seconds))

    def setup(self, seed: int):
        corpus = fixed_corpus(self.fleet_databases, self.queries_per_database,
                              self.fleet_max_rows)
        imdb = make_imdb_database(scale=self.imdb_scale, seed=IMDB_SEED)
        rng = np.random.default_rng(IMDB_SEED)
        records = []
        for benchmark in BENCHMARK_NAMES:
            queries = make_benchmark_workload(
                imdb, benchmark, self.eval_queries_per_benchmark,
                seed=int(rng.integers(2**31 - 1)))
            runner = WorkloadRunner(imdb, seed=int(rng.integers(2**31 - 1)),
                                    noise_sigma=SHAPE.evaluation_noise_sigma)
            records.extend(runner.run(queries))
        return corpus, imdb, records, seed

    def close(self, state) -> None:
        pass

    def run(self, state, tracer: Tracer | None,
            clock: Callable[[], float]) -> Outcome:
        corpus, imdb, records, seed = state
        estimator = ZeroShotEstimator(config=replace(self.config, seed=seed))
        trainer = TrainerConfig(epochs=self.epochs, batch_size=BATCH_SIZE,
                                early_stopping_patience=self.epochs + 1,
                                seed=seed)
        # The trainer calls net.train() once at the start of every epoch
        # (which calls it on every submodule); each optimizer step ends
        # one training step.
        with probe("repro.nn.module:Module.train", clock) as trains, \
                probe("repro.nn.optim:Adam.step", clock) as optimizer_steps, \
                active(tracer):
            started = time.perf_counter()
            estimator.fit_graphs(
                corpus.featurize(CardinalitySource.ESTIMATED), trainer)
            fitted = clock()
            predicted = estimator.predict_runtime(
                [record.plan for record in records], imdb)
            wall = time.perf_counter() - started
        epoch_starts = [span.start for span in trains if not span.parent]
        epochs = np.diff(epoch_starts + [fitted])
        steps = step_durations(epoch_starts,
                               [span.end for span in optimizer_steps])
        actual = np.array([record.runtime_seconds for record in records])
        valid = np.isfinite(predicted) & (predicted > 0)
        bad = int(np.count_nonzero(~valid))
        problems = [f"{bad} non-finite or non-positive predictions"] \
            if bad else []
        if len(epochs) != self.epochs:
            problems.append(f"trained {len(epochs)} epochs, "
                            f"expected {self.epochs}")
        errors = q_error(predicted[valid], actual[valid])
        digest = hashlib.sha256(
            repr(estimator.history.train_losses).encode()
            + predicted.tobytes()).hexdigest()
        quality = {"models.qerror_median": percentile(errors, 50),
                   "models.qerror_p95": percentile(errors, 95)}
        return Outcome(
            attempted=self.epochs + len(records), failed=bad, wall=wall,
            metrics=operation_metrics(len(steps), sum(steps), steps),
            figures={"train_epoch_s": (percentile(epochs, 50), "s"),
                     **tail_figure(steps, self.tail),
                     "qerror_median": (quality["models.qerror_median"],
                                       "ratio"),
                     "qerror_p95": (quality["models.qerror_p95"], "ratio")},
            digest=digest, problems=problems, layer=quality)


def step_durations(epoch_starts: list[float],
                   step_ends: list[float]) -> list[float]:
    """Each training step's time: from the previous step's end, or from
    its epoch's start for an epoch's first step (so the validation pass
    between epochs belongs to no step)."""
    events = sorted([(t, False) for t in epoch_starts]
                    + [(t, True) for t in step_ends])
    durations = []
    boundary = None
    for moment, is_step in events:
        if is_step and boundary is not None:
            durations.append(moment - boundary)
        boundary = moment
    return durations


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    imdb: Any
    estimator: ZeroShotEstimator
    service: CostModelService
    server: PredictionServer
    items: list[str]            #: the request stream, in order


@dataclass(frozen=True)
class ServeMixed:
    """Open loop: one generator thread at a fixed rate against a
    ``PredictionServer``; 90% of requests repeat a warmed SQL text, 10%
    are fresh SQL that must be parsed, planned and featurized.  The SQL
    texts are fixed; the seed draws the request stream from them."""

    requests: int
    #: At 100 requests/s the batcher was busy nearly half the time, and
    #: when the machine slowed, queues built behind the planning misses
    #: and the median latency jumped sixfold; at this rate it is busy
    #: about a third of the time even then.
    nominal_rps: ClassVar[float] = 50.0
    hot_texts: int = 100
    imdb_scale: float = 1.0
    fleet_databases: int = 3
    queries_per_database: int = 40
    fleet_max_rows: int = 20_000
    train_epochs: int = 5
    config: ZeroShotConfig = SHAPE.zero_shot_config
    setup_repeats: ClassVar[int] = 3
    #: The timed region is not paced on layer calls: the reference would
    #: run on the server's threads and add to the latencies measured.
    #: The generator thread times it instead, halfway through every
    #: ``sample_every``-th wait between requests, and the batcher's CPU
    #: time and the latencies are scaled by it.  Set-up is paced: the
    #: main thread waits while the batcher warms up, so one thread runs
    #: at a time.
    paced_run: ClassVar[bool] = False
    sample_every: ClassVar[int] = 4

    @classmethod
    def sized(cls, seconds: int) -> "ServeMixed":
        # 1,000 requests (20 s at the nominal rate) at 20 s: a p99 with
        # ten samples beyond it.
        return cls(requests=max(20, round(seconds * cls.nominal_rps)))

    def setup(self, seed: int) -> ServeState:
        imdb = make_imdb_database(scale=self.imdb_scale, seed=IMDB_SEED)
        estimator = ZeroShotEstimator(config=self.config)
        corpus = fixed_corpus(self.fleet_databases, self.queries_per_database,
                              self.fleet_max_rows)
        estimator.fit_graphs(
            corpus.featurize(CardinalitySource.ESTIMATED),
            TrainerConfig(epochs=self.train_epochs, batch_size=BATCH_SIZE,
                          early_stopping_patience=self.train_epochs + 1))
        rng = np.random.default_rng(seed)
        misses = np.zeros(self.requests, dtype=bool)
        misses[rng.choice(self.requests, round(MISS_FRACTION * self.requests),
                          replace=False)] = True
        # The SQL texts are a fixed recipe, like collect-fleet's queries:
        # a miss plans for tens of milliseconds, and how long depends on
        # the query, so drawing them from the seed moved the batcher's
        # busy time by a tenth from seed to seed.  The seed draws which
        # requests miss, their order and the hot text each hit repeats.
        texts = distinct_job_light(imdb, self.hot_texts + int(misses.sum()),
                                   IMDB_SEED)
        hot = texts[:self.hot_texts]
        fresh = iter(rng.permutation(texts[self.hot_texts:]).tolist())
        picks = rng.integers(0, len(hot), self.requests)
        items = [next(fresh) if miss else hot[pick]
                 for miss, pick in zip(misses, picks)]
        service = CostModelService(estimator, imdb,
                                   max_batch_size=BATCH_SIZE,
                                   cache_entries=ENCODE_CACHE_ENTRIES)
        service.warm(hot)
        server = PredictionServer(service, max_wait_ms=MAX_WAIT_MS,
                                  max_batch_size=BATCH_SIZE)
        for text in hot:
            server.predict_runtime(text, timeout=WAIT_SECONDS)
        return ServeState(imdb=imdb, estimator=estimator, service=service,
                          server=server, items=items)

    def close(self, state: ServeState) -> None:
        state.server.close()

    def run(self, state: ServeState, tracer: Tracer | None,
            clock: Callable[[], float]) -> Outcome:
        server, service = state.server, state.service
        before = (server.stats.batches, server.stats.rejected,
                  service.stats.cache_hits, service.stats.cache_misses)
        # Batch compute is read on the batcher thread's own CPU clock.
        # The reference is timed on the generator thread's.
        gauge = PacedClock(raw=time.thread_time)
        with probe("repro.serve.service:CostModelService.predict_runtime",
                   clock=time.thread_time) as batches, active(tracer):
            requests = loadgen.open_loop(
                server.submit, state.items, self.nominal_rps,
                refused=(Overloaded,),
                sleep=idle_sampler(gauge, self.sample_every))
            loadgen.wait_all(requests, WAIT_SECONDS)
        after = (server.stats.batches, server.stats.rejected,
                 service.stats.cache_hits, service.stats.cache_misses)
        result = loadgen.summarize(requests, self.nominal_rps)
        answered = [request for request in requests if request.response]
        digest = hashlib.sha256()
        for text, runtime in sorted({(r.item, r.response.runtime)
                                     for r in answered}):
            digest.update(f"{text}\t{runtime!r}\n".encode())
        layer = {}
        if tracer is not None:
            layer = self._layer_metrics(
                tracer, answered, result, before[0],
                [new - old for old, new in zip(before, after)])
        return Outcome(
            attempted=len(requests), failed=result.failed, wall=result.span,
            metrics=operation_metrics(
                len(answered),
                sum(span.duration for span in batches) * gauge.scale,
                [latency * gauge.scale for latency in result.latencies]),
            figures={"serve_p50_ms": (_ms(percentile(result.latencies, 50)),
                                      "ms"),
                     "serve_p99_ms": (_ms(percentile(result.latencies, 99)),
                                      "ms"),
                     "reference_ms": (gauge.reference_ms, "ms")},
            digest=digest.hexdigest(), problems=self._check(state, answered),
            layer=layer)

    def _check(self, state: ServeState, answered: list) -> list[str]:
        """Every answer must equal a direct
        ``CostModelService.predict_runtime`` on the same SQL."""
        texts = sorted({request.item for request in answered})
        reference = CostModelService(state.estimator, state.imdb,
                                     max_batch_size=BATCH_SIZE)
        expected = dict(zip(texts, reference.predict_runtime(texts)))
        mismatched = sum(float(expected[r.item]) != r.response.runtime
                         for r in answered)
        if mismatched:
            return [f"{mismatched} served predictions differ from direct "
                    f"CostModelService.predict_runtime"]
        return []

    @staticmethod
    def _layer_metrics(tracer: Tracer, answered, result, first_batch: int,
                       deltas) -> dict[str, float | None]:
        batches, rejected, hits, misses = deltas
        # Batches run one at a time on the batcher thread, in index
        # order; each is one top-level predict_runtime span there.
        computes = [span.duration for span in tracer.spans
                    if span.name == "predict_runtime" and not span.parent]
        compute_of = [computes[r.response.batch_index - first_batch]
                      for r in answered]
        waits = [r.response.latency_seconds - compute
                 for r, compute in zip(answered, compute_of)]
        for number, request in enumerate(answered):
            tracer.record("request", "request", request.due, request.done,
                          tag=number)
        return {
            "serve.queue_wait_p50_ms": _ms(percentile(waits, 50)),
            "serve.queue_wait_p99_ms": _ms(percentile(waits, 99)),
            "serve.batch_compute_p50_ms": _ms(percentile(compute_of, 50)),
            "serve.batch_compute_p99_ms": _ms(percentile(compute_of, 99)),
            "serve.batch_size_mean": (len(answered) / batches
                                      if batches else 0.0),
            "serve.busy_frac": (sum(computes) / result.span
                                if result.span else 0.0),
            "serve.encode_cache_hit_rate": _rate(hits, misses),
            "serve.rejected": float(rejected),
            "loadgen.late_p99_ms": _ms(percentile(result.lateness, 99)),
            "loadgen.late_max_ms": _ms(max(result.lateness)),
        }


def distinct_job_light(imdb, count: int, seed: int) -> list[str]:
    """``count`` distinct job-light SQL texts drawn from ``seed``."""
    texts: dict[str, None] = {}
    draw = 0
    while len(texts) < count:
        draw_seed = int(np.random.SeedSequence([seed, draw])
                        .generate_state(1)[0])
        for query in make_benchmark_workload(imdb, "job-light", count,
                                             seed=draw_seed):
            texts.setdefault(query_to_sql(query))
        draw += 1
    return list(texts)[:count]


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


WORKLOADS = {
    "collect-fleet": CollectFleet,
    "train-epochs": TrainEpochs,
    "serve-mixed": ServeMixed,
}


# ----------------------------------------------------------------------
# Per-layer metrics from a trace
# ----------------------------------------------------------------------
_CACHE_COUNTERS = ("filter_hits", "filter_misses", "build_hits",
                   "build_misses")


def _executor_caches(executor) -> tuple[int, int, int, int]:
    filters, builds = executor.filter_cache, executor.build_cache
    return ((filters.hits, filters.misses) if filters else (0, 0)) + \
        ((builds.hits, builds.misses) if builds else (0, 0))


def count_layers(tracer: Tracer) -> Counter:
    """Install the counter hooks; the returned counter fills as spans
    are recorded."""
    counts: Counter = Counter()

    def database_rows(_, args, kwargs, database):
        counts["db.rows"] += database.total_rows()

    def rewrite_firings(_, args, kwargs, plan):
        trace = plan.metadata.get("rewrite_trace")
        if trace is not None:
            counts["optimizer.rewrite_firings"] += len(trace.firings)

    def executed(before, args, kwargs, result):
        executor, plan = args[0], args[1]
        for name, old, new in zip(_CACHE_COUNTERS, before,
                                  _executor_caches(executor)):
            counts[name] += new - old
        counts["engine.rows_out"] += sum(node.actual_rows or 0
                                         for node in walk_plan(plan.root))

    def level_cache(args, kwargs):
        cache = kwargs.get("level_cache")
        return None if cache is None else (cache, cache.hits, cache.misses)

    def merged(before, args, kwargs, result):
        if before is not None:
            cache, hits, misses = before
            counts["level_hits"] += cache.hits - hits
            counts["level_misses"] += cache.misses - misses

    tracer.on_call("generate_database", after=database_rows)
    tracer.on_call("plan", after=rewrite_firings)
    tracer.on_call("execute", before=lambda args, kwargs:
                   _executor_caches(args[0]), after=executed)
    tracer.on_call("merge", before=level_cache, after=merged)
    return counts


def layer_metrics(spans: list[Span], counts: Counter,
                  wall: float) -> dict[str, float]:
    """Self time per layer entry point, counts and trace health."""
    own = self_times(spans)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    executes = []
    overhead = 0.0
    for span in spans:
        if span.layer == "request":
            continue
        self_s[span.name] += own[span.id]
        total_s[span.name] += span.duration
        calls[span.name] += 1
        overhead += span.overhead
        if span.name == "execute":
            executes.append(span.duration)
    executes.sort(reverse=True)
    traced = sum(self_s.values())
    return {
        "db.generate_s": self_s["generate_database"]
        + self_s["create_random_indexes"],
        "db.rows": float(counts["db.rows"]),
        "workload.generate_s": self_s["generate_workload"],
        "sql.parse_s": self_s["parse_query"],
        "sql.parse_calls": float(calls["parse_query"]),
        "optimizer.plan_self_s": self_s["plan"],
        "optimizer.rewrite_s": self_s["rewrite"],
        "optimizer.plan_calls": float(calls["plan"]),
        "optimizer.rewrite_firings": float(
            counts["optimizer.rewrite_firings"]),
        "engine.execute_self_s": self_s["execute"],
        "engine.execute_calls": float(calls["execute"]),
        "engine.rows_out": float(counts["engine.rows_out"]),
        "engine.execute_top10_share": (sum(executes[:10]) / sum(executes)
                                       if executes else 0.0),
        "engine.build_cache_hit_rate": _rate(counts["build_hits"],
                                             counts["build_misses"]),
        "engine.filter_cache_hit_rate": _rate(counts["filter_hits"],
                                              counts["filter_misses"]),
        "runtime.simulate_s": self_s["simulate"],
        "featurize.featurize_s": self_s["featurize"],
        "featurize.encode_s": self_s["encode"],
        "featurize.merge_s": self_s["merge"],
        "featurize.level_plan_hit_rate": _rate(counts["level_hits"],
                                               counts["level_misses"]),
        "models.forward_s": self_s["forward"],
        "models.predict_s": total_s["predict"],
        "models.train_steps": float(calls["optim_step"]),
        "nn.backward_s": self_s["backward"],
        "nn.optim_step_s": self_s["optim_step"],
        "trace.coverage_frac": (traced + overhead) / wall if wall else 0.0,
        "trace.overhead_frac": (overhead / (wall - overhead)
                                if wall > overhead else 0.0),
        "trace.spans": float(sum(calls.values())),
    }


# Metrics only one workload can measure read 0 on the others.
_WORKLOAD_ONLY = dict.fromkeys((
    "models.qerror_median", "models.qerror_p95",
    "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
    "serve.batch_compute_p50_ms", "serve.batch_compute_p99_ms",
    "serve.batch_size_mean", "serve.busy_frac",
    "serve.encode_cache_hit_rate", "serve.rejected",
    "loadgen.late_p99_ms", "loadgen.late_max_ms"), 0.0)


# ----------------------------------------------------------------------
# The run protocol
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 workload=None, repeats: int | None = None) -> Result:
    """Set up ``repeats`` times (default: the workload's
    ``setup_repeats``; once when tracing, which reports no set-up time),
    run the timed region once on the last state and check it.

    The machine's speed drifts over tens of seconds, so the set-ups are
    split around the timed region, the larger half before it: their
    median then samples the speed across the whole run rather than at
    its start.  An untraced run times its set-ups, and a ``paced_run``
    workload its timed region, on a :class:`~perfbench.speed.PacedClock`;
    a traced run is not paced, so the reference adds nothing to its
    spans.
    """
    workload = workload or WORKLOADS[name].sized(seconds)
    repeats = 1 if trace else repeats or workload.setup_repeats
    pacer = None if trace else PacedClock(**getattr(workload, "pace_with",
                                                    {}))

    def pacing(on: bool):
        return paced(pacer) if on and pacer is not None else nullcontext()

    setup_clock = CPU_CLOCK if pacer is None else pacer.now
    setups: list[float] = []
    state = None
    for _ in range(repeats - repeats // 2):
        if state is not None:
            workload.close(state)
            state = None        # freed before the next set-up
        with pacing(True):
            state = _timed_setup(workload, seed, setups, setup_clock)
    tracer = counts = None
    try:
        if trace:
            tracer = Tracer().install()
            counts = count_layers(tracer)
        with pacing(workload.paced_run):
            outcome = workload.run(
                state, tracer,
                setup_clock if workload.paced_run else CPU_CLOCK)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close(state)
    del state
    memory = peak_rss_mb()
    for _ in range(repeats // 2):
        with pacing(True):
            workload.close(_timed_setup(workload, seed, setups, setup_clock))
    if pacer is not None:
        outcome.figures.setdefault("reference_ms", (pacer.reference_ms, "ms"))
    if trace:
        metrics = {**_WORKLOAD_ONLY,
                   **layer_metrics(tracer.spans, counts, outcome.wall),
                   **outcome.layer}
        gate = getattr(workload, "coverage_gate", None)
        if gate is not None and metrics["trace.coverage_frac"] < gate:
            outcome.problems.append(
                f"layer self times cover {metrics['trace.coverage_frac']:.3f}"
                f" of the timed wall clock, below {gate}")
    else:
        metrics = {**outcome.metrics, "setup_s": median(setups),
                   "peak_rss_mb": memory}
    return Result(outcome=outcome, metrics=metrics, tracer=tracer)


def _timed_setup(workload, seed: int, setups: list[float],
                 clock: Callable[[], float]):
    """One set-up of ``workload``; its time on ``clock`` is appended to
    ``setups``."""
    gc.collect()
    start = clock()
    state = workload.setup(seed)
    setups.append(clock() - start)
    return state
