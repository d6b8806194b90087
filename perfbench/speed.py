"""A CPU clock that reads in reference-machine seconds.

The shared machines this benchmark runs on change speed for seconds to
minutes at a time (contention for the host's cores and caches), by up
to 1.7 times; CPU time reads such a slowdown just as wall time does.
:class:`PacedClock` takes the machine's current speed out of a reading:
every so often (:meth:`PacedClock.tick`) it runs :func:`reference`, a
fixed mix of interpreter and numpy work over a few MB that uses none of
the program's code, and it counts each CPU second of the work as
``REFERENCE_SECONDS / <recent reference duration>`` seconds.  A reading
is the work's CPU time on a machine that runs the reference in
:data:`REFERENCE_SECONDS`; the reference's own time is left out of it.

A change that speeds up the program lowers the reading as it lowers CPU
time; a slow phase of the machine slows the reference as well as the
work, and cancels out.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

from perfbench.tracing import ENTRY_POINTS, EntryPoint, Tracer

__all__ = ["IN_CACHE_SECONDS", "PacedClock", "REFERENCE_SECONDS",
           "idle_sampler", "paced", "reference", "reference_in_cache"]

#: The references' durations on the machine readings are scaled to (a
#: 2-vCPU VM running one process, in its fast phase, timed between the
#: program's work).
REFERENCE_SECONDS = 0.0024
IN_CACHE_SECONDS = 0.0022

_RNG = np.random.default_rng(20_221_205)
#: About 9 MB that the reference reads in random order: 200,000 distinct
#: int objects behind a list (7 MB), and a 2 MB float array.
_OBJECTS = [1_000_000 + int(value)
            for value in _RNG.integers(0, 1 << 30, 200_000)]
_OBJECT_PICKS = [int(index) for index in _RNG.integers(0, 200_000, 2_500)]
_ARRAY = _RNG.random(1 << 18)
_ARRAY_PICKS = _RNG.integers(0, 1 << 18, 50_000)
_WEIGHTS = _RNG.standard_normal((64, 64)) * 0.1
_INPUTS = _RNG.standard_normal((400, 64))
_ACTIVATIONS = _RNG.standard_normal((64, 64))
_KEYS = _RNG.integers(0, 1 << 20, 5_000)
_VALUES = _RNG.random(5_000)


def reference() -> int:
    """A fixed mix of the kinds of work the program does: an
    interpreter loop reading objects scattered over 7 MB, a numpy
    gather from a 2 MB array, and two dense layers with their weight
    gradients.

    The machine's slow phases come from contention for the host's
    caches, so the reference reads more memory than a core's own caches
    hold.  It follows train-epochs' steps and serve-mixed's batches;
    :func:`reference_in_cache` swung more than they did (see the
    README).
    """
    objects = _OBJECTS
    total = 0
    for index in _OBJECT_PICKS:
        total += objects[index] & 7
    total += int(_ARRAY[_ARRAY_PICKS].sum())
    inputs = _INPUTS
    for _ in range(2):
        activations = np.maximum(inputs @ _WEIGHTS, 0.0)
        total += int((activations.T @ inputs).sum() > 0)
        inputs = activations
    return total


def reference_in_cache() -> int:
    """A fixed mix whose data fit in a core's own caches: an interpreter
    loop over a small dict and tuples (about 60% of the time), small
    dense layers and a sort-group-aggregate over 5,000 keys.

    It swings more than :func:`reference` through the machine's slow
    phases, as collect-fleet's queries and database builds do, which
    run numpy over arrays larger than the caches and miss them whatever
    the phase: :func:`reference` under-corrected them by about a tenth
    in slow phases, this one did not (see the README).
    """
    total = 0
    table: dict[int, tuple[int, int]] = {}
    for number in range(10_000):
        total += number * number % 7
        table[number & 255] = (total, number)
    activations = _ACTIVATIONS
    for _ in range(15):
        activations = np.tanh(activations @ _WEIGHTS)
    order = np.argsort(_KEYS, kind="stable")
    _, groups = np.unique(_KEYS[order], return_inverse=True)
    np.bincount(groups, weights=_VALUES[order])
    return total


class PacedClock:
    """Process CPU seconds scaled to the reference machine's speed.

    :meth:`now` is monotonic.  :meth:`tick` times the reference when at
    least ``every`` seconds of work have passed since the last sample;
    the scale is set from the median of the last ``window`` samples, so
    one interrupted sample does not move it.
    """

    def __init__(self, every: float = 0.04, window: int = 7,
                 raw: Callable[[], float] = time.process_time,
                 nominal: float = REFERENCE_SECONDS,
                 reference: Callable[[], object] = reference):
        self.every = every
        self.window = window
        self.raw = raw
        self.nominal = nominal
        self.reference = reference
        self.samples: list[float] = []
        self._value = 0.0
        self._scale = 1.0
        self._last = raw()
        self._since_tick = 0.0
        self.tick(force=True)

    def now(self) -> float:
        raw = self.raw()
        elapsed = raw - self._last
        self._last = raw
        self._since_tick += elapsed
        self._value += elapsed * self._scale
        return self._value

    def tick(self, force: bool = False) -> None:
        self.now()
        if not force and self._since_tick < self.every:
            return
        begin = self.raw()
        self.reference()
        self.samples.append(self.raw() - begin)
        self._scale = self.nominal / statistics.median(
            self.samples[-self.window:])
        self._since_tick = 0.0
        self._last = self.raw()

    @property
    def reference_ms(self) -> float:
        """Median reference duration over the clock's life, in ms."""
        return statistics.median(self.samples) * 1e3

    @property
    def scale(self) -> float:
        """Paced seconds per CPU second over the clock's life so far."""
        return self.nominal / statistics.median(self.samples)


def idle_sampler(clock: PacedClock, every: int,
                 sleep: Callable[[float], None] = time.sleep,
                 now: Callable[[], float] = time.perf_counter
                 ) -> Callable[[float], None]:
    """A ``sleep`` for an open-loop generator that, in every
    ``every``-th wait, ticks ``clock`` halfway through.

    Halfway to its next request the generator's thread is idle and the
    server has usually answered the last one, so the reference runs
    beside little work it could delay.
    """
    waits = itertools.count()

    def idle(seconds: float) -> None:
        deadline = now() + seconds
        if next(waits) % every == 0:
            sleep(seconds / 2)
            clock.tick(force=True)
            seconds = deadline - now()
        if seconds > 0:
            sleep(seconds)

    return idle


@contextmanager
def paced(clock: PacedClock,
          entry_points: tuple[EntryPoint, ...] = ENTRY_POINTS):
    """Tick ``clock`` on entry to every call of ``entry_points`` for the
    duration of the block, so its scale follows the machine's speed
    through long sequences of calls.  The reference runs on the calling
    thread, so the block's work must run on one thread at a time."""
    tracer = Tracer(entry_points, clock=clock.now)
    for entry in entry_points:
        tracer.on_call(entry.name, before=lambda args, kwargs: clock.tick())
    tracer.install()
    tracer.active = True
    tracer.spans = _Discard()
    try:
        yield clock
    finally:
        tracer.uninstall()


class _Discard(list):
    """A span list that keeps nothing: pacing needs the hook, not the
    spans."""

    def append(self, span) -> None:
        pass
