"""The three benchmark workloads.

Each workload is a function ``(seed, seconds, trace) -> Result``.
With ``trace=False`` it reports the end-to-end metrics of the serving
path at its defaults; with ``trace=True`` it serves the same inputs
twice, interleaved — once through an untraced manager and once
through a manager whose tracer holds every span of the run and whose
store and forests carry the benchmark's timers — and reports the
per-layer metrics.  Every workload checks its outputs; a failed
check clears ``Result.correct``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.obs import Observability
from repro.serving import (
    CallStatus,
    FleetServer,
    StreamServer,
    build_fleet_roster,
)
from repro.simulation import CloudSimulation, SimulationConfig

import history as hist
import measure
import probes

__all__ = [
    "Result",
    "END_TO_END",
    "PER_LAYER",
    "LADDER",
    "WORKLOADS",
    "NOT_EXERCISED",
    "run",
]

END_TO_END = {
    "setup_s": "s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "incidents_per_s": "1/s",
    "sustained_rate_ips": "1/s",
    "routing_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

# The stream ladder: absolute Poisson arrival rates (incidents/s) below
# and well above the serial capacity of five trained Scouts on a 2-core
# box (about 30/s).  Never derived from a measured capacity.  No rung
# sits near full utilization today, where a rung's verdict flips with
# the seed or a noisy neighbour, so sustained_rate_ips resolves rung
# steps only; the top rung sits at about twice today's capacity because
# the host's speed swings by a third, and in a fast spell of the host a
# 48/s rung can be sustained.  The top rung overloads the server; its completion rate
# is the server's capacity, the per-layer serving.stream.capacity_ips
# (too noisy over one rung to carry an end-to-end bound).  Latency
# (decision_p50_ms / decision_tail_ms) is read on the lowest rung:
# queueing amplifies any slowdown of the box, and at about a quarter of
# capacity the figure stays a serving latency, not a measure of how
# busy the neighbours were.
LADDER = (8, 16, 64)
# Arrivals on the rungs above the lowest: enough for a tail and a
# backlog verdict, and on the top rung few enough that its backlog
# stays inside the server's default queue of 64 while capacity stays
# above 13/s.  The lowest rung, whose latency is reported, gets what its
# rate offers in --seconds; these rungs run after it.
RUNG_ARRIVALS = {16: 40, 64: 80}
# Every seed meets the same burst pattern on a rung: --seed varies the
# incidents, not the schedule, so a change is compared on equal bursts
# rather than on the luck of a Poisson draw.
LADDER_SCHEDULE_SEED = 1
# A rung's backlog grows when the queue depth its late arrivals find
# exceeds what its early arrivals found by more than this many incidents.
BACKLOG_GROWTH = 4

# Decisions scored for routing_accuracy: a fixed prefix of the served
# sequence, so the figure is a pure function of the seed.
ACCURACY_DECISIONS = 500
# Storms: faults per storm, reports per fault, and the storms
# novel_stream's traced run serves through handle_batch.
STORM_FAULTS = 4
STORM_REPORTS = 3
TRACE_STORMS = 8
# Minimum items a traced run serves (it reports no accuracy).
TRACE_MINIMUM = 40
# Unseen incidents every manager serves untimed before measuring; a
# second set-up of the same seed serves them too, for the digest check.
WARMUP = 16
# The unseen incidents, in created_at order, are laid out as: WARMUP
# warm-up incidents, the pool the workloads serve, then STORM_RESERVE
# incidents for storms (the traced run's, then the one storm every
# novel_stream run checks).  The pool (848 incidents) stays below 1000
# decisions, so novel_stream's tail is always read at p95 (see
# measure.STANDARD_PERCENTILES), however fast the program gets.
STORM_RESERVE = STORM_FAULTS * (TRACE_STORMS + 1)
# Fleet: roster size, batch size, base incidents, calibration size.
FLEET_TEAMS = 120
FLEET_BATCH = 64
FLEET_BASE_INCIDENTS = 400
FLEET_CALIBRATION = 128
FLEET_ACCURACY_BATCHES = 16
# Batches routed per run: at least FLEET_MIN_BATCHES, at most
# FLEET_MAX_BATCHES, otherwise for --seconds.  Every decision of a
# batch completes when route_trace returns, so the fleet's latencies are
# per batch; between these counts its tail is always p75 of the batch
# times, with 12 to 24 batches beyond it.
FLEET_MIN_BATCHES = 50
FLEET_MAX_BATCHES = 99
# Closed-loop incidents the traced ladder run serves interleaved on
# both managers to measure tracing overhead.
LADDER_OVERHEAD_INCIDENTS = 50


def _per_layer_names() -> dict[str, str]:
    names = {
        "core.features.ms_p50": "ms",
        "core.features.ms_p99": "ms",
        "core.features.share_of_handle": "ratio",
        "core.features.self_ms_p50": "ms",
        "core.features.memo_hit_ratio": "ratio",
        "core.features.cross_hit_ratio": "ratio",
        "monitoring.store.pulls_per_incident": "count",
        "monitoring.store.pull_ms_per_incident": "ms",
    }
    for kind in ("series", "events", "type_counts"):
        names[f"monitoring.store.{kind}_pulls_per_incident"] = "count"
        names[f"monitoring.store.{kind}_pull_us_p50"] = "us"
    names.update(
        {
            "core.framework.dataset_s": "s",
            "core.framework.train_s": "s",
            "serving.manager.self_ms_p50": "ms",
            "serving.manager.compose_ms_p50": "ms",
            "serving.manager.batch_busy_share": "ratio",
            "core.scout.call_ms_p50": "ms",
            "core.scout.call_ms_p99": "ms",
            "core.scout.phynet_call_ms_p50": "ms",
            "core.scout.phynet_call_ms_p99": "ms",
            "core.extraction.ms_p50": "ms",
            "core.selector.ms_p50": "ms",
            "core.selector.route_share.rf": "ratio",
            "core.selector.route_share.cpd": "ratio",
            "core.selector.route_share.fallback": "ratio",
            "core.selector.route_share.excluded": "ratio",
            "ml.forest.predict_ms_p50": "ms",
            "core.scout.infer_rf_ms_p50": "ms",
            "core.cpd_plus.ms_p50": "ms",
            "core.cpd_plus.calls": "count",
        }
    )
    for rate in LADDER:
        names[f"serving.stream.queue_wait_ms_p50.r{rate}"] = "ms"
        names[f"serving.stream.queue_wait_ms_p99.r{rate}"] = "ms"
        names[f"serving.stream.shed_share.r{rate}"] = "ratio"
        names[f"serving.stream.depth_max.r{rate}"] = "count"
        names[f"serving.stream.admit_lag_ms_p99.r{rate}"] = "ms"
    names.update(
        {
            "serving.stream.capacity_ips": "1/s",
            "serving.fleet.route_batch_ms_p50": "ms",
            "serving.fleet.rank_ms_p50": "ms",
            "serving.fleet.calibrate_s": "s",
            "serving.fleet.reroutes_per_incident": "count",
            "serving.fleet.legacy_fallback_share": "ratio",
            "serving.failed_share": "ratio",
            "obs.unaccounted_share": "ratio",
            "obs.trace_overhead_x": "x",
            "obs.spans_dropped": "count",
        }
    )
    return names


PER_LAYER = _per_layer_names()


@dataclass
class Result:
    """One workload run: checks, work counts, metrics, notes."""

    correct: bool = True
    # Work attempted (arrivals plus Scout calls issued) and what of it
    # was refused (shed arrivals) or failed (Scout calls not OK).  An
    # exception ends the run instead of being counted.
    attempted: int = 0
    shed: int = 0
    non_ok_calls: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.notes.append(f"check {'ok  ' if ok else 'FAIL'} {what}")
        self.correct = self.correct and ok

    def count(self, attempted: int, shed: int = 0, non_ok_calls: int = 0) -> None:
        self.attempted += attempted
        self.shed += shed
        self.non_ok_calls += non_ok_calls

    @property
    def failed(self) -> int:
        return self.shed + self.non_ok_calls

    @property
    def failed_share(self) -> float:
        return measure.failed_share(
            self.attempted, shed=self.shed, non_ok_calls=self.non_ok_calls
        )


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child.

    The only children are the fleet's pool workers, reaped by the time
    a workload returns; ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _latency_metrics(result: Result, latencies_s, what: str) -> None:
    ms = [v * 1e3 for v in latencies_s]
    tail = measure.tail_percentile(ms)
    result.metrics["decision_p50_ms"] = measure.percentile(ms, 50.0)
    result.metrics["decision_tail_ms"] = tail.value
    result.notes.append(
        f"decision_tail_ms is p{tail.pct:g} of {tail.samples} {what} "
        f"({tail.beyond} beyond it)"
    )


def _setup_metrics(result: Result, timings) -> None:
    """``timings`` holds ``(total, dataset, train)`` seconds per set-up."""
    total, dataset, train = zip(*timings)
    result.metrics["setup_s"] = statistics.median(total)
    result.metrics["core.framework.dataset_s"] = statistics.median(dataset)
    result.metrics["core.framework.train_s"] = statistics.median(train)
    result.notes.append(
        "setup_s is the median of " + ", ".join(f"{t:.3f}" for t in total) + " s"
    )


def _outcome_failures(decisions) -> tuple[int, int]:
    """(Scout calls issued, calls that did not end OK)."""
    calls = sum(len(d.outcomes) for d in decisions)
    bad = sum(1 for d in decisions for o in d.outcomes if o.status is not CallStatus.OK)
    return calls, bad


def _span_budget() -> int:
    # Spans per incident: serve.handle, compose, and per Scout a call
    # plus at most four stages; the pool is every unseen incident,
    # storms replicate each at most STORM_REPORTS times.
    per_incident = 2 + 5 * len(hist.scout_configs())
    return per_incident * hist.SIM_INCIDENTS * STORM_REPORTS


@dataclass
class _Prepared:
    """Set-ups ready to serve, warmed up and checked."""

    setups: list
    # Decisions each kept manager made before the measured phase.
    warm_decisions: int
    # Spans the traced twin finished and its counter totals when its
    # warm-up ended; the per-layer figures leave both out.
    warm_spans: int
    warm_counts: Counter

    @property
    def main(self):
        return self.setups[0]

    @property
    def pool(self) -> list:
        """The unseen incidents left for the measured phase."""
        return self.main.history.unseen[WARMUP:-STORM_RESERVE]


def _storms(history) -> list[list]:
    """Storms over the STORM_RESERVE incidents at the end of the unseen
    pool; the last is the check storm, the others the traced run's."""
    first_id = 1 + max(i.incident_id for i in [*history.train, *history.unseen])
    return hist.make_storms(
        history.unseen[-STORM_RESERVE:],
        TRACE_STORMS + 1,
        STORM_FAULTS,
        STORM_REPORTS,
        first_id,
    )


def _prepare(
    result: Result, seed: int, trace: bool, storm_check: bool = False
) -> _Prepared:
    """Set up SETUP_REPEATS managers, each on its own copy of the seed's
    generated history.

    Generating the history is excluded from the set-up time.  The first
    set-up is the check: it serves the first WARMUP unseen incidents,
    with ``storm_check`` then the check storm through a serial
    ``handle`` loop, and is closed.  The last set-up serves; in a
    traced run the one before it serves and the last is its traced
    twin, whose manager holds a span buffer sized for the run.  Any
    other set-up is only timed.  Each set-up that does not serve is
    closed before the next starts, so the process never holds more
    set-ups than serving needs.  Each kept manager then serves the same
    WARMUP incidents untimed, so first-call costs stay out of the
    measured phase, and the serving manager's decisions must match the
    check's: the same-seed digest check.  With ``storm_check`` each kept
    manager then serves the check storm through
    ``handle_batch(workers=nproc)``, which must decide as the serial
    loop did.
    """
    kept = 2 if trace else 1
    timings, setups = [], []
    reference = serial = None
    generated = pickle.dumps(hist.make_history(seed))
    for r in range(hist.SETUP_REPEATS):
        history = pickle.loads(generated)
        traced = trace and r == hist.SETUP_REPEATS - 1
        obs = Observability(max_spans=_span_budget()) if traced else None
        setup = hist.setup_manager(history, obs=obs)
        timings.append((setup.seconds, setup.dataset_seconds, setup.train_seconds))
        if r == 0:
            reference = [setup.manager.handle(i) for i in history.unseen[:WARMUP]]
            if storm_check:
                serial = [setup.manager.handle(i) for i in _storms(history)[-1]]
        if r >= hist.SETUP_REPEATS - kept:
            setups.append(setup)
        else:
            setup.manager.close()
        del setup, history
        gc.collect()
    _setup_metrics(result, timings)
    warmed = [[s.manager.handle(i) for i in s.history.unseen[:WARMUP]] for s in setups]
    result.check(
        hist.replay_digest(warmed[0]) == hist.replay_digest(reference),
        f"replay digest of {WARMUP} decisions equal on a second same-seed set-up",
    )
    warm_decisions = WARMUP
    if storm_check:
        workers = hist.nproc()
        for s in setups:
            batched = s.manager.handle_batch(_storms(s.history)[-1], workers=workers)
            result.check(
                [hist.replay_record(d) for d in batched]
                == [hist.replay_record(d) for d in serial],
                f"check storm: handle_batch(workers={workers}) decisions equal "
                "a serial handle loop",
            )
        warm_decisions += len(serial)
    twin = setups[-1].manager
    warm_spans = len(twin.obs.trace.finished_spans)
    return _Prepared(setups, warm_decisions, warm_spans, _counts(twin))


def _close(setups) -> None:
    for setup in setups:
        setup.manager.close()


def _check_manager(
    result: Result, prepared: _Prepared, manager, submitted, served
) -> None:
    """The checks every manager workload makes, and its work count.

    ``served`` is every decision ``manager`` returned after warming up.
    A closed loop passes ``submitted``, every incident it handed over,
    in order: the manager sheds nothing, so each must have its own
    decision.
    """
    handled = (
        _counter_total(manager.obs.metrics, "serving_incidents_total")
        - prepared.warm_decisions
    )
    result.check(handled == len(served), f"the manager counted {handled:g} decisions")
    if submitted is not None:
        result.check(
            [d.incident_id for d in served] == [i.incident_id for i in submitted],
            f"served {len(served)} + shed 0 = submitted {len(submitted)}, in order",
        )
    teams = sorted(manager.registered_teams)
    result.check(
        all(sorted(o.team for o in d.outcomes) == teams for d in served),
        f"every decision has one outcome per registered Scout ({len(teams)})",
    )
    calls, bad = _outcome_failures(served)
    result.count(len(served) + calls, non_ok_calls=bad)


def _closed_loop(serve_fns, items, seconds: float, minimum: int):
    """Serve ``items`` one after another for ``seconds`` (at least ``minimum``).

    With two serve functions (the traced run) every item goes through
    both, alternating which goes first, so neither side is favoured by
    warm caches.  Returns per-function outputs and per-item times, and
    the wall time of the loop.
    """
    outputs: list[list] = [[] for _ in serve_fns]
    times: list[list[float]] = [[] for _ in serve_fns]
    started = time.perf_counter()
    deadline = started + seconds
    for i, item in enumerate(items):
        if i >= minimum and time.perf_counter() >= deadline:
            break
        order = list(range(len(serve_fns)))
        if i % 2:
            order.reverse()
        for k in order:
            t0 = time.perf_counter()
            outputs[k].append(serve_fns[k](item))
            times[k].append(time.perf_counter() - t0)
    if len(outputs[0]) < minimum:
        raise RuntimeError(f"only {len(outputs[0])} of {minimum} required items available")
    return outputs, times, time.perf_counter() - started


def _check_twins(result: Result, untraced, traced) -> None:
    result.check(
        hist.replay_digest(untraced) == hist.replay_digest(traced),
        "traced and untraced decisions equal",
    )


def _instrument(setup) -> probes.Timers:
    timers = probes.Timers()
    timers.wrap_store(setup.history.sim.store)
    timers.wrap_forests(setup.scouts)
    return timers


def _counter_total(metrics, name: str) -> float:
    family = metrics.get(name)
    return family.total() if family is not None else 0.0


def _counts(manager) -> Counter:
    """The manager's monitoring-memo and selector-route counter totals."""
    metrics = manager.obs.metrics
    counts = Counter(
        queries=_counter_total(metrics, "monitoring_queries_total"),
        hits=_counter_total(metrics, "monitoring_cache_hits_total"),
        cross=_counter_total(metrics, "monitoring_cache_cross_hits_total"),
    )
    family = metrics.get("scout_predictions_total")
    if family is not None:
        for labels, value in family.samples():
            counts[f"route:{labels['route']}"] += value
    return counts


def _hit_ratios(result: Result, counts: Counter) -> None:
    """Monitoring-memo and cross-incident hit ratios of a counter delta."""
    queries, hits, cross = counts["queries"], counts["hits"], counts["cross"]
    lookups = queries + hits
    result.metrics["core.features.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    result.metrics["core.features.cross_hit_ratio"] = cross / lookups if lookups else 0.0


def _layer_metrics(
    result: Result, manager, records, acc: probes.SpanAccount, counts: Counter
) -> None:
    """The per-layer metrics the manager workloads share.

    ``records`` are the timer records and ``counts`` the counter
    totals of the measured phase only.
    """
    m = result.metrics
    incidents = max(1, len(acc.incidents()))
    handle_total = sum(acc.handle_seconds.values())

    def p(values, pct):
        return measure.percentile(values, pct) if values else 0.0

    feats = acc.durations_ms("scout.features")
    m["core.features.ms_p50"] = p(feats, 50)
    m["core.features.ms_p99"] = p(feats, 99)
    m["core.features.share_of_handle"] = (
        sum(feats) / 1e3 / handle_total if handle_total else 0.0
    )
    m["core.features.self_ms_p50"] = p(acc.self_ms("scout.features"), 50)
    _hit_ratios(result, counts)
    total_pulls = 0
    total_ms = 0.0
    for kind in ("series", "events", "type_counts"):
        us = [d * 1e6 for d in probes.durations(records, f"store.{kind}")]
        total_pulls += len(us)
        total_ms += sum(us) / 1e3
        m[f"monitoring.store.{kind}_pulls_per_incident"] = len(us) / incidents
        m[f"monitoring.store.{kind}_pull_us_p50"] = p(us, 50)
    m["monitoring.store.pulls_per_incident"] = total_pulls / incidents
    m["monitoring.store.pull_ms_per_incident"] = total_ms / incidents
    m["serving.manager.self_ms_p50"] = p(acc.self_ms("serve.handle"), 50)
    m["serving.manager.compose_ms_p50"] = p(acc.durations_ms("serve.compose"), 50)
    unaccounted = [row for row in acc.layer_rows() if row[0] == "unaccounted"]
    m["obs.unaccounted_share"] = unaccounted[0][3] if unaccounted else 0.0
    calls = acc.durations_ms("scout.call")
    phynet = acc.durations_ms("scout.call", team="PhyNet")
    m["core.scout.call_ms_p50"] = p(calls, 50)
    m["core.scout.call_ms_p99"] = p(calls, 99)
    m["core.scout.phynet_call_ms_p50"] = p(phynet, 50)
    m["core.scout.phynet_call_ms_p99"] = p(phynet, 99)
    m["core.extraction.ms_p50"] = p(acc.durations_ms("scout.extract"), 50)
    m["core.selector.ms_p50"] = p(acc.durations_ms("scout.select"), 50)
    n_routes = sum(v for k, v in counts.items() if k.startswith("route:"))
    for route, name in (("rf", "rf"), ("cpd+", "cpd"), ("fallback", "fallback"),
                        ("excluded", "excluded")):
        m[f"core.selector.route_share.{name}"] = (
            counts[f"route:{route}"] / n_routes if n_routes else 0.0
        )
    m["ml.forest.predict_ms_p50"] = p(
        [d * 1e3 for d in probes.durations(records, "forest.predict_proba")], 50
    )
    m["core.scout.infer_rf_ms_p50"] = p(acc.durations_ms("scout.infer_rf"), 50)
    cpd = acc.durations_ms("scout.infer_cpd")
    m["core.cpd_plus.ms_p50"] = p(cpd, 50)
    m["core.cpd_plus.calls"] = float(len(cpd))
    dropped = manager.obs.trace.dropped
    m["obs.spans_dropped"] = float(dropped)
    result.check(dropped == 0, f"tracer dropped {dropped} spans")
    result.notes.append("per-layer table of serve.handle (self time per incident):")
    result.notes.append(probes.render_layer_table(acc))


def _traced_metrics(
    result: Result, prepared: _Prepared, records, untraced_s, traced_s
) -> None:
    """Per-layer metrics over what the traced twin did after warming up."""
    traced = prepared.setups[1].manager
    spans = traced.obs.trace.finished_spans[prepared.warm_spans:]
    acc = probes.SpanAccount(spans, records)
    _layer_metrics(result, traced, records, acc, _counts(traced) - prepared.warm_counts)
    result.metrics["obs.trace_overhead_x"] = sum(traced_s) / sum(untraced_s)


def _closed_loop_metrics(result: Result, manager, served, latencies, wall, truth) -> None:
    _latency_metrics(result, latencies, "decisions")
    rate = len(served) / wall
    result.metrics["incidents_per_s"] = rate
    result.metrics["sustained_rate_ips"] = rate
    result.metrics["routing_accuracy"] = manager.whatif_accuracy(truth)["correct"]


def _traced_storms(result: Result, prepared: _Prepared, storms) -> list:
    """Serve ``storms`` through ``handle_batch(workers=nproc)`` on both
    twins; set the per-layer metrics only storms exercise.

    Returns the main manager's decisions, in order.
    """
    main, twin = (s.manager for s in prepared.setups)
    tracer = twin.obs.trace
    first_span = len(tracer.finished_spans)
    before = _counts(twin)
    workers = hist.nproc()
    fns = [lambda storm, m=m: m.handle_batch(storm, workers=workers) for m in (main, twin)]
    outputs, times, _ = _closed_loop(fns, storms, 0.0, len(storms))
    flat = [[d for storm in out for d in storm] for out in outputs]
    _check_twins(result, flat[0], flat[1])
    busy = sum(
        s.end - s.start for s in tracer.finished_spans[first_span:] if s.name == "scout.call"
    )
    result.metrics["serving.manager.batch_busy_share"] = busy / (sum(times[1]) * workers)
    _hit_ratios(result, _counts(twin) - before)
    dropped = tracer.dropped
    result.metrics["obs.spans_dropped"] = float(dropped)
    result.check(dropped == 0, f"tracer dropped {dropped} spans by the last storm")
    result.notes.append(
        f"served {len(storms)} storms of {STORM_FAULTS} faults x {STORM_REPORTS} "
        f"reports with {workers} workers; the hit ratios and batch_busy_share are theirs"
    )
    return flat[0]


# -- novel_stream ---------------------------------------------------------


def novel_stream(seed: int, seconds: float, trace: bool) -> Result:
    """Unseen incidents in created_at order, one caller, ``handle``.

    Every run checks the check storm through ``handle_batch`` (see
    :func:`_prepare`).  The traced run then serves TRACE_STORMS storms
    through ``handle_batch(workers=nproc)`` on both twins, for the
    layers only storms exercise: the batch pool's busy share and the
    monitoring memo's hit ratios.  Every other per-layer figure covers
    the stream phase alone.
    """
    result = Result()
    prepared = _prepare(result, seed, trace, storm_check=True)
    try:
        main = prepared.main
        fns = [main.manager.handle]
        if trace:
            twin = prepared.setups[1]
            timers = _instrument(twin)
            fns.append(twin.manager.handle)
        outputs, times, wall = _closed_loop(
            fns, prepared.pool, seconds, TRACE_MINIMUM if trace else ACCURACY_DECISIONS
        )
        served = outputs[0]
        submitted = prepared.pool[: len(served)]
        result.notes.append(f"served {len(served)} unseen incidents in {wall:.2f} s")
        if trace:
            _check_twins(result, outputs[0], outputs[1])
            _traced_metrics(result, prepared, list(timers.records), times[0], times[1])
            storms = _storms(main.history)[:-1]
            served = served + _traced_storms(result, prepared, storms)
            submitted = submitted + [i for storm in storms for i in storm]
        else:
            truth = main.history.truth
            scored = {d.incident_id: truth[d.incident_id] for d in served[:ACCURACY_DECISIONS]}
            _closed_loop_metrics(result, main.manager, served, times[0], wall, scored)
        _check_manager(result, prepared, main.manager, submitted, served)
        return result
    finally:
        _close(prepared.setups)


# -- stream_ladder --------------------------------------------------------


@dataclass
class RungRun:
    """What one ladder rung measured."""

    rate: float
    submitted: int
    served: int
    shed: int
    wall: float
    latencies: list[float]
    admit_lags: list[float]
    queue_waits: list[float]
    depths: list[int]
    decisions: list
    completion_rate: float

    @property
    def verdict(self) -> measure.Rung:
        tail = measure.tail_percentile([v * 1e3 for v in self.latencies])
        return measure.Rung(
            self.rate,
            tail.value,
            self.shed,
            measure.backlog_growing(self.depths, BACKLOG_GROWTH),
        )


def run_rung(server: StreamServer, clock, arrivals) -> RungRun:
    """Drive one rung of ``(offset, incident)`` arrivals through ``server``.

    ``clock`` must be the server's clock.  Latency and admission lag are
    timed from each arrival's due time, ``t0 + offset``.
    """
    arrivals = list(arrivals)
    due = {incident.incident_id: float(offset) for offset, incident in arrivals}
    depths: list[int] = []
    submit = server.submit

    def tracked(incident):
        shed = submit(incident)
        depths.append(server.depth)
        return shed

    server.submit = tracked
    try:
        t0 = clock()
        outcomes = server.run(arrivals)
        wall = clock() - t0
    finally:
        del server.submit
    rows = measure.due_time_latencies(t0, due, outcomes)
    served = [o for o in outcomes if not o.shed]
    return RungRun(
        rate=0.0,
        submitted=len(arrivals),
        served=len(served),
        shed=len(outcomes) - len(served),
        wall=wall,
        latencies=[lat for _, lat, _ in rows],
        admit_lags=[lag for _, _, lag in rows],
        queue_waits=[o.queue_wait for o in served],
        depths=depths,
        decisions=[o.decision for o in served],
        completion_rate=measure.completion_rate(t0, due, outcomes),
    )


def rung_sizes(seconds: float) -> list[int]:
    """Arrivals per rung: on the lowest what its rate offers in
    ``seconds`` (at least enough for a tail and a backlog verdict), on
    the others RUNG_ARRIVALS."""
    low = LADDER[0]
    return [
        max(4 * measure.MIN_BEYOND, round(low * seconds)) if rate == low else RUNG_ARRIVALS[rate]
        for rate in LADDER
    ]


def spin(seconds: float) -> None:
    """Busy-wait ``seconds``: the ladder server's idle wait.

    A server that sleeps hands its core back to the host; on a shared
    VM the next arrival may then also wait for the core to come back
    and its caches to refill, which measures the host, not the
    program.  Spinning keeps the core, as a dedicated serving core is
    kept.
    """
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _run_ladder(manager, incidents, seconds: float) -> list[RungRun]:
    server = StreamServer(manager, sleeper=spin)
    rungs = []
    start = 0
    for k, (rate, n) in enumerate(zip(LADDER, rung_sizes(seconds))):
        batch = incidents[start:start + n]
        start += n
        if len(batch) < n:
            raise RuntimeError("the unseen pool ran out before the ladder's top")
        offsets = hist.poisson_schedule(n, rate, seed=LADDER_SCHEDULE_SEED + k)
        rung = run_rung(server, time.perf_counter, zip(offsets, batch))
        rung.rate = float(rate)
        rungs.append(rung)
    return rungs


def stream_ladder(seed: int, seconds: float, trace: bool) -> Result:
    """Open-loop Poisson arrivals at fixed rates through ``StreamServer``."""
    result = Result()
    prepared = _prepare(result, seed, trace)
    try:
        main = prepared.main
        pool = prepared.pool
        ladder = prepared.setups[1] if trace else main
        if trace:
            timers = _instrument(ladder)
        rungs = _run_ladder(ladder.manager, pool, seconds)
        served = [d for rung in rungs for d in rung.decisions]
        shed = sum(rung.shed for rung in rungs)
        for rung in rungs:
            result.check(
                rung.served + rung.shed == rung.submitted,
                f"rung {rung.rate:g}/s: served {rung.served} + shed {rung.shed} "
                f"= submitted {rung.submitted}",
            )
            v = rung.verdict
            result.notes.append(
                f"rung {rung.rate:g}/s: tail {v.tail_ms:.1f} ms, shed {v.shed}, "
                f"backlog {'growing' if v.growing else 'stable'}, "
                f"depth max {max(rung.depths)}, wall {rung.wall:.2f} s"
            )
        _check_manager(result, prepared, ladder.manager, None, served)
        result.count(shed, shed=shed)
        if trace:
            used = sum(rung.submitted for rung in rungs)
            probe = pool[used:used + LADDER_OVERHEAD_INCIDENTS]
            outputs, times, _ = _closed_loop(
                [main.manager.handle, ladder.manager.handle], probe, 0.0, len(probe)
            )
            _check_twins(result, outputs[0], outputs[1])
            _traced_metrics(result, prepared, timers.records, times[0], times[1])
            m = result.metrics
            for rung in rungs:
                r = f"r{rung.rate:g}"
                waits = [w * 1e3 for w in rung.queue_waits] or [0.0]
                lags = [lag * 1e3 for lag in rung.admit_lags]
                m[f"serving.stream.queue_wait_ms_p50.{r}"] = measure.percentile(waits, 50)
                m[f"serving.stream.queue_wait_ms_p99.{r}"] = measure.percentile(waits, 99)
                m[f"serving.stream.shed_share.{r}"] = rung.shed / rung.submitted
                m[f"serving.stream.depth_max.{r}"] = float(max(rung.depths))
                m[f"serving.stream.admit_lag_ms_p99.{r}"] = measure.percentile(lags, 99)
            m["serving.stream.capacity_ips"] = rungs[-1].completion_rate
        else:
            low = rungs[0]
            _latency_metrics(result, low.latencies, f"arrivals at {low.rate:g}/s")
            # An open loop completes what it is offered while it keeps
            # up, so this reads the offered load, not capacity: that is
            # novel_stream's incidents_per_s for the same manager, and
            # serving.stream.capacity_ips on the overloaded top rung.
            result.metrics["incidents_per_s"] = len(served) / sum(r.wall for r in rungs)
            # Reported as measured: what the highest sustained rung
            # completed per second of its run, close to its nominal rate.
            best = measure.sustained_rate([rung.verdict for rung in rungs])
            sustained = [rung for rung in rungs if rung.rate == best]
            result.metrics["sustained_rate_ips"] = (
                sustained[0].served / sustained[0].wall if sustained else 0.0
            )
            result.notes.append(f"sustained rung: {best:g}/s")
            truth = main.history.truth
            scored = {d.incident_id: truth[d.incident_id] for d in served}
            result.metrics["routing_accuracy"] = main.manager.whatif_accuracy(scored)[
                "correct"
            ]
        return result
    finally:
        _close(prepared.setups)


# -- fleet_trace ----------------------------------------------------------


def _fleet_inputs(seed: int):
    """Calibration incidents, a check batch and an endless trace.

    The fleet scores the Appendix D accuracy model, which keys on the
    incident id and the responsible team, so the trace cycles through a
    generated base with fresh ids.
    """
    sim = CloudSimulation(SimulationConfig(seed=seed, duration_days=hist.SIM_DAYS / 2))
    base = sorted(
        sim.generate(FLEET_BASE_INCIDENTS), key=lambda i: (i.created_at, i.incident_id)
    )
    next_id = 1 + max(i.incident_id for i in base)

    def fresh(count: int, offset: int):
        return [
            replace(base[(offset + j) % len(base)], incident_id=next_id + offset + j)
            for j in range(count)
        ]

    calibration = base[:FLEET_CALIBRATION]
    check_batch = fresh(FLEET_BATCH, 0)

    def batches():
        k = 1
        while True:
            yield fresh(FLEET_BATCH, k * FLEET_BATCH)
            k += 1

    return calibration, check_batch, batches()


def _fleet_digest(decisions) -> str:
    digest = hashlib.sha256()
    for d in decisions:
        digest.update((json.dumps(d.to_record(), sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def fleet_trace(seed: int, seconds: float, trace: bool) -> Result:
    """A 120-team fleet routing a trace in fixed-size batches."""
    result = Result()
    calibration, check_batch, batches = _fleet_inputs(seed)
    workers = hist.nproc()
    setup_s, calibrate_s, digests = [], [], []
    server = None
    try:
        for _ in range(hist.SETUP_REPEATS):
            if server is not None:
                server.close()
            t0 = time.perf_counter()
            roster = build_fleet_roster(FLEET_TEAMS, seed=seed)
            server = FleetServer(
                roster, workers=workers, use_processes=True, io_stall_s=0.0
            )
            t1 = time.perf_counter()
            server.calibrate(calibration)
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            calibrate_s.append(t2 - t1)
            digests.append(_fleet_digest(server.route_trace(check_batch)))
        result.metrics["setup_s"] = statistics.median(setup_s)
        result.notes.append(
            "setup_s is the median of " + ", ".join(f"{s:.3f}" for s in setup_s) + " s"
        )
        result.check(
            len(set(digests)) == 1,
            f"check batch decision log equal on {len(digests)} same-seed set-ups",
        )
        policy = server.policy
        timers = probes.Timers()
        times: list[tuple[bool, float]] = []
        routed = []
        in_order = True
        started = time.perf_counter()
        deadline = started + seconds
        for k, batch in enumerate(batches):
            if k >= FLEET_MAX_BATCHES or (
                k >= FLEET_MIN_BATCHES and time.perf_counter() >= deadline
            ):
                break
            traced = trace and k % 2 == 1
            if traced:
                timers.wrap(policy, "rank", "fleet.rank")
            t0 = time.perf_counter()
            decisions = server.route_trace(batch)
            elapsed = time.perf_counter() - t0
            if traced:
                del policy.rank
            in_order = in_order and [d.incident_id for d in decisions] == [
                i.incident_id for i in batch
            ]
            times.append((traced, elapsed))
            routed.extend(decisions)
        wall = time.perf_counter() - started
        result.check(in_order, "one decision per routed incident, in order")
        result.check(
            len(routed) == len(times) * FLEET_BATCH, "served + shed = submitted (0 shed)"
        )
        errors = sum(d.errors + len(d.breaker_open) for d in routed)
        result.count(len(routed) * (1 + FLEET_TEAMS), non_ok_calls=errors)
        result.notes.append(f"routed {len(times)} batches of {FLEET_BATCH} in {wall:.2f} s")
        if trace:
            summary = server.summary()
            untraced = [t for traced, t in times if not traced]
            traced_t = [t for traced, t in times if traced]
            m = result.metrics
            m["serving.fleet.route_batch_ms_p50"] = measure.percentile(untraced, 50) * 1e3
            m["serving.fleet.rank_ms_p50"] = measure.percentile(
                timers.durations("fleet.rank"), 50
            ) * 1e3
            m["serving.fleet.calibrate_s"] = statistics.median(calibrate_s)
            m["serving.fleet.reroutes_per_incident"] = summary["reroutes"] / summary["incidents"]
            m["serving.fleet.legacy_fallback_share"] = (
                summary["legacy_fallbacks"] / summary["incidents"]
            )
            m["obs.trace_overhead_x"] = statistics.median(traced_t) / statistics.median(untraced)
            return result
        _latency_metrics(
            result, [t for _, t in times], f"batches of {FLEET_BATCH} decisions"
        )
        rate = len(routed) / wall
        result.metrics["incidents_per_s"] = rate
        result.metrics["sustained_rate_ips"] = rate
        scored = routed[: FLEET_ACCURACY_BATCHES * FLEET_BATCH]
        result.metrics["routing_accuracy"] = sum(
            1 for d in scored if d.suggested_team == d.truth_team
        ) / len(scored)
        return result
    finally:
        if server is not None:
            server.close()


WORKLOADS = {
    "novel_stream": novel_stream,
    "stream_ladder": stream_ladder,
    "fleet_trace": fleet_trace,
}

# The per-layer metrics each workload does not exercise, by name
# prefix.  Those layers did no work and read 0; any other per-layer
# metric a workload does not measure is reported missing and fails
# the run.
NOT_EXERCISED = {
    "novel_stream": ("serving.stream.", "serving.fleet."),
    "stream_ladder": ("serving.manager.batch_busy_share", "serving.fleet."),
    "fleet_trace": (
        "core.",
        "monitoring.",
        "ml.",
        "serving.manager.",
        "serving.stream.",
        "obs.unaccounted_share",
        "obs.spans_dropped",
    ),
}


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload and add the metrics every workload reports."""
    result = WORKLOADS[name](seed, seconds, trace)
    result.metrics["peak_rss_mb"] = _peak_rss_mb()
    result.metrics["serving.failed_share"] = result.failed_share
    for metric in PER_LAYER:
        if metric.startswith(NOT_EXERCISED[name]):
            result.metrics.setdefault(metric, 0.0)
    return result
