"""Span recorder that wraps the program's public entry points from outside.

The benchmark traces a run without touching the program: :class:`Tracer`
replaces each entry point listed in :data:`ENTRY_POINTS` with a thin
wrapper while the tracer is installed, and restores the original on
:meth:`Tracer.uninstall`.  A wrapper records one :class:`Span` per call
(name, layer, start, end, parent span, thread and a query/request tag)
when the tracer is *active*; otherwise it only forwards the call, so
the timed region can switch tracing on and off around the work it
measures.  Spans stay in memory until :meth:`Tracer.write` dumps them.

The benchmark also uses small always-active tracers as its probes: a
tracer over one entry point, read with a CPU clock, times every call of
that entry point during an untraced run.

Module-level functions are often imported by name into other modules
(``from repro.db.generator import generate_database``), so the tracer
rebinds every ``repro.*`` module attribute that *is* the original
function, not only the defining module's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

__all__ = ["ENTRY_POINTS", "EntryPoint", "Span", "Tracer", "self_times"]


@dataclass(frozen=True)
class EntryPoint:
    """One public callable to wrap.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    A ``unit`` entry point starts a new query/request tag when it is
    entered outside any other span of its thread; spans nested in it (or
    following it on the same thread) carry that tag.
    """

    layer: str
    name: str
    target: str
    unit: bool = False


#: The public entry points of every layer, in call-graph order.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("db", "generate_database",
               "repro.db.generator:generate_database"),
    EntryPoint("db", "create_random_indexes",
               "repro.workload.corpus:create_random_indexes"),
    EntryPoint("workload", "generate_workload",
               "repro.workload.generator:generate_workload"),
    EntryPoint("sql", "parse_query", "repro.sql.parser:parse_query"),
    EntryPoint("optimizer", "plan", "repro.optimizer.planner:Planner.plan",
               unit=True),
    EntryPoint("optimizer", "rewrite",
               "repro.optimizer.rewrite:RewritePlanner.rewrite"),
    EntryPoint("engine", "execute", "repro.engine.executor:Executor.execute"),
    EntryPoint("runtime", "simulate",
               "repro.runtime.simulator:RuntimeSimulator.simulate"),
    EntryPoint("featurize", "featurize",
               "repro.featurize.graph:ZeroShotFeaturizer.featurize"),
    EntryPoint("featurize", "encode", "repro.featurize.batch:encode_graphs"),
    EntryPoint("featurize", "merge", "repro.featurize.batch:merge_encoded"),
    EntryPoint("models", "forward",
               "repro.models.zero_shot:ZeroShotNet.forward"),
    EntryPoint("models", "predict", "repro.models.zero_shot:"
               "ZeroShotCostModel.predict_log_from_encoded"),
    EntryPoint("nn", "backward", "repro.nn.tensor:Tensor.backward"),
    EntryPoint("nn", "optim_step", "repro.nn.optim:Adam.step"),
    EntryPoint("serve", "predict_runtime",
               "repro.serve.service:CostModelService.predict_runtime",
               unit=True),
    EntryPoint("serve", "submit", "repro.serve.server:PredictionServer.submit",
               unit=True),
)


@dataclass
class Span:
    id: int
    parent: int          #: 0 for a span with no enclosing span
    name: str
    layer: str
    start: float         #: seconds on the tracer's clock
    end: float
    thread: int
    tag: int             #: query / request / batch id
    #: The tracer's own time around the call: the wrapper's bookkeeping
    #: outside ``start``..``end`` plus its calibrated frame cost.  It
    #: lies inside the parent span but belongs to no layer.
    overhead: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``hook(args, kwargs)`` runs before the call and returns a state;
#: ``after(state, args, kwargs, result)`` runs once the call returned.
Hook = Callable[[tuple, dict], Any]
After = Callable[[Any, tuple, dict, Any], None]


class Tracer:
    """Records spans around :data:`ENTRY_POINTS` while active."""

    def __init__(self, entry_points: tuple[EntryPoint, ...] = ENTRY_POINTS,
                 clock: Callable[[], float] = time.perf_counter):
        self.entry_points = entry_points
        self.clock = clock
        self.spans: list[Span] = []
        self.active = False
        #: Seconds per call the wrapper spends where it cannot time
        #: itself (entering and leaving its own frame); set by
        #: :meth:`install`.
        self.frame_cost = 0.0
        self._ids = itertools.count(1)
        self._tags = itertools.count(1)
        self._local = threading.local()
        self._hooks: dict[str, tuple[Hook | None, After | None]] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- hooks --------------------------------------------------------
    def on_call(self, name: str, before: Hook | None = None,
                after: After | None = None) -> None:
        """Run ``before``/``after`` around traced calls of entry point
        ``name`` (for counters read off the call's arguments/result)."""
        self._hooks[name] = (before, after)

    # -- install / uninstall -----------------------------------------
    def install(self) -> "Tracer":
        self.frame_cost = self.calibrate()
        for entry in self.entry_points:
            module_name, _, path = entry.target.partition(":")
            owner = importlib.import_module(module_name)
            *owner_path, attribute = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            wrapper = self.wrap(entry, original)
            self._rebind(owner, attribute, original, wrapper)
            if not owner_path:
                # Rebind every module that imported the function by name.
                for module in list(sys.modules.values()):
                    if (module is not owner and
                            getattr(module, "__name__", "").startswith("repro")
                            and module.__dict__.get(attribute) is original):
                        self._rebind(module, attribute, original, wrapper)
        return self

    def uninstall(self) -> None:
        self.active = False
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _rebind(self, owner, attribute: str, original, wrapper) -> None:
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    # -- recording ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.tag = 0
        return stack

    def calibrate(self, calls: int = 2_000, rounds: int = 3) -> float:
        """The wrapper's per-call cost that its own clock readings miss.

        Times ``calls`` calls of a no-op, plain and wrapped by an active
        scratch tracer on the same clock; whatever the wrapped calls
        cost beyond the plain ones and beyond the overhead the spans
        recorded is the frame cost.  The lowest of ``rounds`` readings
        is kept, as interruptions only ever add time.
        """
        clock = self.clock
        readings = []
        for _ in range(rounds):
            scratch = Tracer((), clock=clock)
            scratch.active = True
            noop = _noop
            wrapped = scratch.wrap(EntryPoint("trace", "noop", ""), noop)
            begin = clock()
            for _ in range(calls):
                noop()
            plain = clock() - begin
            begin = clock()
            for _ in range(calls):
                wrapped()
            extra = clock() - begin - plain
            seen = sum(span.overhead for span in scratch.spans)
            readings.append((extra - seen) / calls)
        return max(0.0, min(readings))

    def record(self, name: str, layer: str, start: float, end: float,
               tag: int = 0) -> None:
        """Add a span measured elsewhere (e.g. a request's lifetime)."""
        self.spans.append(Span(next(self._ids), 0, name, layer, start, end,
                               threading.get_ident(), tag))

    def wrap(self, entry: EntryPoint, function):
        """``function`` wrapped to record a span while the tracer is active."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            clock = tracer.clock
            entered = clock()
            before, after = tracer._hooks.get(entry.name, (None, None))
            stack = tracer._stack()
            if entry.unit and not stack:
                tracer._local.tag = next(tracer._tags)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            state = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if after is not None:
                after(state, args, kwargs, result)
            span = Span(span_id, parent, entry.name, entry.layer, start, end,
                        threading.get_ident(), tracer._local.tag)
            tracer.spans.append(span)
            span.overhead = ((start - entered) + (clock() - end)
                             + tracer.frame_cost)
            return result

        return functools.wraps(function)(traced)

    # -- output -------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover and
    minus the tracer's overhead around those children.

    Children of one span run on the span's own thread, one after
    another, but the union of their intervals is taken anyway (clipped
    to the parent), so overlapping or out-of-range children never
    count twice; a self time is never negative.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            covered += child.overhead
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = max(0.0, span.duration - covered)
    return result


def _noop() -> None:
    pass
