"""Measurement utilities: counters, latency samples, and event traces.

Every experiment in the benchmark harness reads its numbers from these
collectors rather than from ad-hoc prints, so the same instrumentation
feeds the unit tests and the figure-regeneration benches.

Tracers are the *local* collectors; the cluster-wide view lives one
layer up in :mod:`repro.obs` — a ``MetricsRegistry`` names every tracer
hierarchically and snapshots them together, and ``Span`` trees record
per-invocation timelines on top of the same simulated clock.  The
canonical key vocabulary both layers share is documented in
OBSERVABILITY.md.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, List

__all__ = ["Counter", "SampleSeries", "Tracer", "NullTracer", "NULL_TRACER",
           "summarize", "percentile", "nearest_rank"]


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank ``ceil(pct/100 * n)``, at least 1 (p0 is the minimum),
    computed exactly over the decimal value of ``pct``: in floats 99.9
    over 1000 samples over-shoots to rank 1000, not 999."""
    return max(1, int(-(-(Fraction(str(pct)) * n) // 100)))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in [0, 100]).

    Nearest-rank means the result is always one of the samples: the
    value at :func:`nearest_rank` in sorted order.
    """
    if not values:
        raise ValueError("percentile of empty series")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


@dataclass
class Summary:
    """Five-number-ish summary of a latency/size series."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        """Snapshot as a plain dictionary."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of an iterable of samples."""
    data = list(values)
    if not data:
        raise ValueError("cannot summarize empty series")
    n = len(data)
    mean = sum(data) / n
    variance = sum((x - mean) ** 2 for x in data) / n
    return Summary(
        count=n,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=min(data),
        p50=percentile(data, 50),
        p95=percentile(data, 95),
        p99=percentile(data, 99),
        maximum=max(data),
    )


class Counter:
    """A named bag of monotonically increasing integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def incr(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` (non-negative) to ``key``."""
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative: {amount}")
        self._counts[key] += amount

    def get(self, key: str) -> int:
        """Return the stored value for ``key`` (0 when absent — never
        ``None``, so results are safe to add and compare directly)."""
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot as a plain dictionary."""
        return dict(self._counts)

    def reset(self) -> None:
        """Clear all recorded state."""
        self._counts.clear()

    def __getitem__(self, key: str) -> int:
        return self.get(key)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"Counter({body})"


class SampleSeries:
    """A named collection of float samples."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = defaultdict(list)

    def record(self, key: str, value: float) -> None:
        """Append one sample."""
        self._samples[key].append(value)

    def samples(self, key: str) -> List[float]:
        """Recorded samples for ``key`` (a copy)."""
        return list(self._samples.get(key, []))

    def summary(self, key: str) -> Summary:
        """Statistical summary of ``key``'s samples."""
        return summarize(self._samples.get(key, []))

    def keys(self) -> List[str]:
        """Sorted recorded keys."""
        return sorted(self._samples.keys())

    def reset(self) -> None:
        """Clear all recorded state."""
        self._samples.clear()


@dataclass
class TraceEvent:
    """One structured trace record (time, category, payload)."""

    time: float
    category: str
    detail: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Combined counters + samples + optional structured event log.

    Each network node and protocol layer owns (or shares) a Tracer; the
    benchmark harness interrogates it after the run.
    """

    def __init__(self, keep_events: bool = False) -> None:
        self.counters = Counter()
        self.series = SampleSeries()
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []

    def count(self, key: str, amount: int = 1) -> None:
        """Increment the named counter."""
        self.counters.incr(key, amount)

    def sample(self, key: str, value: float) -> None:
        """Record one sample under ``key``."""
        self.series.record(key, value)

    def event(self, time: float, category: str, **detail: Any) -> None:
        """Record a structured trace event."""
        self.counters.incr(f"event.{category}")
        if self.keep_events:
            self.events.append(TraceEvent(time, category, detail))

    def reset(self) -> None:
        """Clear all recorded state."""
        self.counters.reset()
        self.series.reset()
        self.events.clear()


class NullTracer(Tracer):
    """A tracer that records nothing: the untraced-run fast path.

    Reads behave like an empty :class:`Tracer` (counters return 0,
    series are empty), but every recording call is a bare no-op — no
    dict writes, no string formatting, no event bookkeeping.  Hot paths
    (link pumps, switch forwarding, kernel benchmarks) hand this to
    nodes when measurement itself would distort the measurement; the
    shared :data:`NULL_TRACER` singleton makes that allocation-free.

    The metrics registry skips null tracers when snapshotting, so an
    untraced node contributes no keys instead of a block of zeros.
    """

    def count(self, key: str, amount: int = 1) -> None:
        pass

    def sample(self, key: str, value: float) -> None:
        pass

    def event(self, time: float, category: str, **detail: Any) -> None:
        pass


#: Shared no-op tracer: safe to hand to any number of nodes at once
#: because nothing is ever written to it.
NULL_TRACER = NullTracer()
