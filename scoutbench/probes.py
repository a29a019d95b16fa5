"""Timers around public calls, and the per-layer table built from spans.

The serving path already emits spans (``serve.handle``, ``scout.call``,
``scout.extract``, ``scout.select``, ``scout.features``,
``scout.infer_rf``, ``scout.infer_cpd``, ``serve.compose``).  The
benchmark adds timers around public calls the spans do not separate —
the ``MonitoringStore.query_*`` pulls and
``RandomForestClassifier.predict_proba`` — and hangs each timer under
the span that was active when it fired.  Self times over that joint
tree split ``serve.handle`` into layers named after the repo's modules.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.obs import Tracer

from measure import Node, percentile, self_times

__all__ = [
    "STORE_QUERIES",
    "LAYER_OF",
    "Timers",
    "durations",
    "SpanAccount",
    "render_layer_table",
]

# Public store queries, by the query kind the benchmark reports.
STORE_QUERIES = {
    "query_series": "series",
    "query_series_batch": "series",
    "query_events": "events",
    "query_events_batch": "events",
    "query_event_type_counts": "type_counts",
    "query_event_type_counts_batch": "type_counts",
}

# Span or timer name -> the layer its self time is charged to.  The
# self time of serve.handle is the manager's own work: fan-out, commit,
# and in handle_batch the wait for a pool worker, because the root span
# opens when the incident is submitted.  The self time of scout.call is
# Scout.predict time no stage span or timer covers: the table prints it
# as the unaccounted remainder.
LAYER_OF = {
    "serve.handle": "serving.manager",
    "serve.compose": "serving.manager.compose",
    "scout.extract": "core.extraction",
    "scout.select": "core.selector",
    "scout.features": "core.features",
    "scout.infer_rf": "core.scout.infer_rf",
    "scout.infer_cpd": "core.cpd_plus",
    "store.series": "monitoring.store",
    "store.events": "monitoring.store",
    "store.type_counts": "monitoring.store",
    "forest.predict_proba": "ml.forest",
}
UNACCOUNTED = "scout.call"


class Timers:
    """Wraps public methods of live objects and records each call.

    A record is ``(name, parent_span_id, start, end)``, where the
    parent is the span active in the calling thread when the call
    started — the stage span the call ran under.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, str | None, float, float]] = []
        self._lock = threading.Lock()

    def wrap(self, obj, attr: str, name: str) -> None:
        original = getattr(obj, attr)
        records, lock = self.records, self._lock

        def timed(*args, **kwargs):
            parent = Tracer.current()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with lock:
                    records.append(
                        (name, parent.span_id if parent else None, start, end)
                    )

        setattr(obj, attr, timed)

    def wrap_store(self, store) -> None:
        for attr, kind in STORE_QUERIES.items():
            self.wrap(store, attr, f"store.{kind}")

    def wrap_forests(self, scouts) -> None:
        for scout in scouts:
            self.wrap(scout.forest, "predict_proba", "forest.predict_proba")

    def durations(self, name: str) -> list[float]:
        return durations(self.records, name)


def durations(records, name: str) -> list[float]:
    """Seconds of each timer record named ``name``."""
    return [end - start for n, _, start, end in records if n == name]


class SpanAccount:
    """Per-incident and per-span views of one traced serving run."""

    def __init__(self, spans, records) -> None:
        spans = list(spans)
        trace_of = {s.span_id: s.trace_id for s in spans}
        # Attributes of the stage spans (team, status) for filtering.
        self.attributes = {s.span_id: s.attributes for s in spans}
        self.nodes = [Node(s.span_id, s.parent_id, s.name, s.start, s.end) for s in spans]
        self.nodes += [
            Node(f"timer-{i}", parent, name, start, end)
            for i, (name, parent, start, end) in enumerate(records)
        ]
        self.self_time = self_times(self.nodes)
        # serve.handle duration and per-layer self time, per incident.
        self.handle_seconds: dict[str, float] = {}
        self.by_trace: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for node in self.nodes:
            trace = trace_of.get(node.node_id) or trace_of.get(node.parent_id)
            if trace is None:
                continue
            if node.name == "serve.handle":
                self.handle_seconds[trace] = node.duration
            layer = LAYER_OF.get(node.name)
            if node.name == UNACCOUNTED:
                layer = "unaccounted"
            if layer is not None:
                self.by_trace[trace][layer] += self.self_time[node.node_id]

    def spans(self, name: str, **attrs) -> list[Node]:
        out = []
        for node in self.nodes:
            if node.name != name:
                continue
            have = self.attributes.get(node.node_id, {})
            if all(have.get(k) == v for k, v in attrs.items()):
                out.append(node)
        return out

    def durations_ms(self, name: str, **attrs) -> list[float]:
        return [n.duration * 1e3 for n in self.spans(name, **attrs)]

    def self_ms(self, name: str) -> list[float]:
        return [
            self.self_time[n.node_id] * 1e3 for n in self.nodes if n.name == name
        ]

    def incidents(self) -> list[str]:
        """Trace ids of the served incidents."""
        return list(self.handle_seconds)

    def layer_rows(self) -> list[tuple[str, float, float, float]]:
        """``(layer, p50_ms, p99_ms, share)`` per layer, per incident.

        The p50/p99 are over incidents of the layer's summed self time
        within the incident; ``share`` is the layer's total over the
        total ``serve.handle`` time.
        """
        traces = self.incidents()
        total = sum(self.handle_seconds[t] for t in traces)
        layers = sorted({layer for t in traces for layer in self.by_trace[t]})
        rows = []
        for layer in layers:
            per = [self.by_trace[t].get(layer, 0.0) * 1e3 for t in traces]
            share = sum(per) / 1e3 / total if total else 0.0
            rows.append(
                (layer, percentile(per, 50.0), percentile(per, 99.0), share)
            )
        rows.sort(key=lambda row: (row[0] == "unaccounted", -row[3]))
        return rows


def render_layer_table(acc: SpanAccount) -> str:
    """``layer -> p50/p99 ms, share of serve.handle`` plus the remainder."""
    rows = acc.layer_rows()
    handle_ms = [acc.handle_seconds[t] * 1e3 for t in acc.incidents()]
    lines = [
        f"{'layer':<28}{'p50 ms':>10}{'p99 ms':>10}{'share':>9}",
    ]
    closed = 0.0
    for layer, p50, p99, share in rows:
        label = (
            "unaccounted remainder" if layer == "unaccounted" else layer
        )
        lines.append(f"{label:<28}{p50:>10.3f}{p99:>10.3f}{share:>9.3f}")
        closed += share
    lines.append(
        f"{'serve.handle':<28}{percentile(handle_ms, 50.0):>10.3f}"
        f"{percentile(handle_ms, 99.0):>10.3f}{closed:>9.3f}"
    )
    lines.append(
        f"({len(handle_ms)} incidents; the unaccounted remainder is "
        "scout.call time that no stage span or timer covers)"
    )
    return "\n".join(lines)
