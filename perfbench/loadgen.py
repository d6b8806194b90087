"""Open-loop load generator: requests go out on a fixed schedule.

Request ``i`` of a run at ``rate`` requests/s is *due* at
``start + i / rate``, whether or not earlier requests were answered, as
traffic from independent users would be.  Latency is timed from the due
time, so a stall that holds up the generator (a long planning miss
holding the interpreter lock, say) is charged to every request it
delayed, and the generator's own lateness is reported beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["Request", "RateResult", "open_loop", "summarize", "wait_all"]


@dataclass
class Request:
    """One scheduled request and what became of it."""

    item: Any
    due: float                  #: ``perf_counter`` time it was due
    sent: float = 0.0           #: when the generator submitted it
    pending: Any = None         #: the server's future, if admitted
    response: Any = None
    error: BaseException | None = None

    @property
    def late(self) -> float:
        """Seconds the generator submitted the request after its due time."""
        return self.sent - self.due

    @property
    def done(self) -> float | None:
        """When the answer was produced, or ``None`` for a failed request."""
        if self.response is None:
            return None
        return self.sent + self.response.latency_seconds

    @property
    def latency(self) -> float | None:
        """Due time → answer, or ``None`` for a refused/failed request."""
        done = self.done
        return None if done is None else done - self.due


def open_loop(submit: Callable[[Any], Any], items: Sequence[Any],
              rate: float, refused: tuple[type[BaseException], ...],
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep,
              start_delay: float = 0.01) -> list[Request]:
    """Submit ``items`` at ``rate`` per second from the calling thread.

    ``submit(item)`` must return a future with ``result(timeout)``;
    exceptions of the ``refused`` types (admission control) are recorded
    on the request instead of propagating.
    """
    start = clock() + start_delay
    requests = []
    for index, item in enumerate(items):
        request = Request(item=item, due=start + index / rate)
        delay = request.due - clock()
        if delay > 0:
            sleep(delay)
        request.sent = clock()
        try:
            request.pending = submit(item)
        except refused as error:
            request.error = error
        requests.append(request)
    return requests


def wait_all(requests: list[Request], timeout: float) -> None:
    """Block until every admitted request is answered or failed."""
    for request in requests:
        if request.pending is None:
            continue
        try:
            request.response = request.pending.result(timeout)
        except Exception as error:   # counted as a failed request
            request.error = error


@dataclass(frozen=True)
class RateResult:
    """What one fixed-rate run delivered."""

    rate: float
    requests: int
    failed: int                 #: refused or errored requests
    latencies: tuple[float, ...]  #: seconds, answered requests only
    lateness: tuple[float, ...]   #: seconds, every request
    span: float                 #: first due time -> last answer, seconds


def summarize(requests: list[Request], rate: float) -> RateResult:
    """Reduce a finished :func:`open_loop` run to a :class:`RateResult`."""
    first_due = min(request.due for request in requests)
    last = max(request.due for request in requests)
    latencies = []
    for request in requests:
        if request.latency is not None:
            latencies.append(request.latency)
            last = max(last, request.done)
    return RateResult(rate=rate, requests=len(requests),
                      failed=len(requests) - len(latencies),
                      latencies=tuple(latencies),
                      lateness=tuple(r.late for r in requests),
                      span=last - first_due)
