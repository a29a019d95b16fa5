"""Pure measurement rules of the benchmark (no repro imports).

Everything here is a function of plain numbers, so the rules the
benchmark reports by can be tested on hand-built inputs:

* :func:`tail_percentile` — the highest standard percentile that still
  has at least ten samples beyond it;
* :func:`due_time_latencies` — open-loop latency measured from each
  arrival's *due* time, plus how late the generator admitted it;
* :func:`completion_rate` — decisions a rung completed per second;
* :func:`backlog_growing` / :func:`sustained_rate` — which ladder rung
  a server sustains;
* :func:`self_times` — a span's duration minus what its children cover;
* :func:`failed_share` — refused or failed work over attempted work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "STANDARD_PERCENTILES",
    "MIN_BEYOND",
    "TAIL_LIMIT_MS",
    "Tail",
    "percentile",
    "tail_percentile",
    "due_time_latencies",
    "completion_rate",
    "backlog_growing",
    "Rung",
    "sustained_rate",
    "Node",
    "self_times",
    "failed_share",
]

# The percentiles a tail may be read at.  Reading at a fixed grid keeps
# the metric comparable between runs whose sample counts differ a
# little; the rule below only moves it when the count crosses a grid
# boundary (200 samples for p95, 1000 for p99).
STANDARD_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
# The latency limit a sustained rate must meet at its tail percentile.
TAIL_LIMIT_MS = 500.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class Tail:
    """A tail read-out: the value, the percentile it is read at, and
    the sample count it came from."""

    value: float
    pct: float
    samples: int
    beyond: int


def tail_percentile(values, min_beyond: int = MIN_BEYOND) -> Tail:
    """The highest standard percentile with ``min_beyond`` samples past it.

    Nearest-rank: the p-th percentile of n samples is the
    ``ceil(p/100 * n)``-th smallest, and ``n - ceil(p/100 * n)`` samples
    lie beyond it.  Raises when even the median has fewer than
    ``min_beyond`` samples beyond it (fewer than ``2 * min_beyond``
    samples) — such a sample has no tail worth reporting.
    """
    ordered = sorted(values)
    n = len(ordered)
    best: Tail | None = None
    for pct in STANDARD_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= min_beyond:
            best = Tail(ordered[rank - 1], pct, n, beyond)
    if best is None:
        raise ValueError(
            f"{n} samples leave no percentile with {min_beyond} beyond it"
        )
    return best


def due_time_latencies(t0: float, due_offsets: dict, outcomes) -> list[tuple]:
    """Open-loop latency per outcome, timed from when it was *due*.

    ``t0`` is the clock reading when the arrival schedule started,
    ``due_offsets`` maps incident id → scheduled offset from ``t0``,
    and each outcome carries ``incident_id``, ``submitted_at`` and
    ``finished_at`` on the same clock.  Returns ``(incident_id,
    latency, admit_lag)`` in due order, where ``latency`` is finish
    minus due (so a stall that delays later arrivals' admission is
    charged to them) and ``admit_lag`` is admission minus due (how
    late the generator ran).
    """
    rows = []
    for outcome in outcomes:
        due = t0 + due_offsets[outcome.incident_id]
        rows.append(
            (
                due,
                outcome.incident_id,
                outcome.finished_at - due,
                outcome.submitted_at - due,
            )
        )
    rows.sort(key=lambda row: (row[0], row[1]))
    return [(incident_id, lat, lag) for _, incident_id, lat, lag in rows]


def completion_rate(t0: float, due_offsets: dict, outcomes) -> float:
    """Served decisions per second, from the first due arrival to the
    last completion.

    Arguments are those of :func:`due_time_latencies`; shed outcomes do
    not count.  On a rung that overloads the server the queue stays
    non-empty, so this is the rate the server completes work at — its
    capacity — whatever the offered rate.
    """
    served = [o for o in outcomes if not o.shed]
    if not served:
        return 0.0
    start = t0 + min(due_offsets.values())
    return len(served) / (max(o.finished_at for o in served) - start)


def backlog_growing(depths_in_arrival_order, growth_limit: float) -> bool:
    """Did the queue keep growing over one rung?

    ``depths_in_arrival_order`` is the queue depth seen right after each
    arrival was admitted.  Compares the median depth over the last third
    of the arrivals with that over the first third: a stable queue keeps
    them close, a queue that gains work faster than it drains does not.
    Depth rather than latency is compared because priority lanes serve
    a late high-severity arrival at once while older low-severity work
    waits, so latency alone can hide a growing queue.
    """
    values = list(depths_in_arrival_order)
    third = len(values) // 3
    if third < 1:
        return False
    early = percentile(values[:third], 50.0)
    late = percentile(values[-third:], 50.0)
    return late - early > growth_limit


@dataclass(frozen=True)
class Rung:
    """One ladder rung's verdict inputs."""

    rate: float
    tail_ms: float
    shed: int
    growing: bool


def sustained_rate(rungs, limit_ms: float = TAIL_LIMIT_MS) -> float:
    """The highest rate up to which every rung passes; 0.0 if none does.

    A rung passes when its tail latency is within ``limit_ms``, it shed
    nothing, and its backlog did not grow.  Rungs are judged from the
    lowest rate up and the first failure ends the climb: a lucky pass
    above a failing rung is not a rate the server sustains.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if rung.tail_ms > limit_ms or rung.shed or rung.growing:
            break
        best = rung.rate
    return best


@dataclass(frozen=True)
class Node:
    """One span or timer interval in a trace tree."""

    node_id: str
    parent_id: str | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(nodes) -> dict[str, float]:
    """Self time of every node: its duration minus what children cover.

    Children are the nodes whose ``parent_id`` names the node.  Their
    intervals are merged before subtracting, so children that overlap
    (concurrent fan-out) are not subtracted twice, and clipped to the
    parent, so a child outliving its parent cannot drive the self time
    negative.
    """
    nodes = list(nodes)
    children: dict[str, list[tuple[float, float]]] = {}
    for node in nodes:
        if node.parent_id is not None:
            children.setdefault(node.parent_id, []).append((node.start, node.end))
    return {
        node.node_id: node.duration
        - _covered(node.start, node.end, children.get(node.node_id, ()))
        for node in nodes
    }


def failed_share(attempted: int, shed: int = 0, non_ok_calls: int = 0) -> float:
    """Refused or failed work over attempted work.

    The numerator counts shed arrivals and Scout calls that did not end
    OK (error, timeout, breaker open); ``attempted`` counts every arrival
    and every Scout call issued.  An exception ends a benchmark run
    instead of being counted.
    """
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    return (shed + non_ok_calls) / attempted
