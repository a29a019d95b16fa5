"""Tests for the benchmark's own measurement rules.

Run from the repository root with ``python -m pytest scoutbench/tests``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import history
import measure
import probes
import workloads
from repro.incidents import Incident, IncidentSource, Severity
from repro.monitoring import FakeClock
from repro.obs import Span
from repro.serving import CallStatus, IncidentManager, ScoutCallOutcome, StreamServer
from repro.simulation.teams import default_teams

# -- the tail-percentile rule --------------------------------------------


def test_tail_is_highest_standard_percentile_with_ten_beyond():
    tail = measure.tail_percentile(range(1, 101))
    assert (tail.value, tail.pct, tail.samples, tail.beyond) == (90, 90.0, 100, 10)


def test_tail_moves_up_only_when_the_count_allows():
    # 999 samples leave 9 beyond p99, so the rule falls back to p95.
    tail = measure.tail_percentile(range(1, 1000))
    assert (tail.pct, tail.beyond) == (95.0, 49)
    tail = measure.tail_percentile(range(1, 1001))
    assert (tail.value, tail.pct, tail.beyond) == (990, 99.0, 10)


def test_each_workload_reads_its_tail_at_one_percentile():
    # The fleet routes FLEET_MIN_BATCHES..FLEET_MAX_BATCHES batches.
    for n in range(workloads.FLEET_MIN_BATCHES, workloads.FLEET_MAX_BATCHES + 1):
        assert measure.tail_percentile(range(n)).pct == 75.0
    # novel_stream serves at least ACCURACY_DECISIONS and at most its
    # pool: every history has SIM_INCIDENTS incidents.
    pool = (
        history.SIM_INCIDENTS - history.TRAIN_INCIDENTS
        - workloads.WARMUP - workloads.STORM_RESERVE
    )
    for n in (workloads.ACCURACY_DECISIONS, pool):
        assert measure.tail_percentile(range(n)).pct == 95.0


def test_tail_of_a_small_sample_is_the_median_or_nothing():
    tail = measure.tail_percentile(range(1, 26))
    assert (tail.value, tail.pct, tail.beyond) == (13, 50.0, 12)
    with pytest.raises(ValueError):
        measure.tail_percentile(range(19))


def test_tail_is_order_independent():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert measure.tail_percentile(values) == measure.tail_percentile(sorted(values))


# -- due-time latency on a FakeClock-driven ladder ------------------------


def _incident(incident_id: int, severity=Severity.MEDIUM) -> Incident:
    return Incident(
        incident_id=incident_id,
        created_at=1000.0 + incident_id,
        title=f"incident {incident_id}",
        body="P99 latency regression",
        severity=severity,
        source=IncidentSource.CUSTOMER,
        source_team="",
        responsible_team="PhyNet",
    )


def test_rung_latency_is_timed_from_due_time_and_reports_generator_lag():
    clock = FakeClock()
    manager = IncidentManager(default_teams(), clock=clock)
    server = StreamServer(manager, service_time=0.1)
    arrivals = [(0.0, _incident(1)), (0.01, _incident(2)), (0.02, _incident(3))]
    rung = workloads.run_rung(server, clock, arrivals)
    # Arrival 1 is served 0.0-0.1; 2 and 3 are admitted at 0.1, when the
    # server next looks, and served 0.1-0.2 and 0.2-0.3.
    assert rung.latencies == pytest.approx([0.1, 0.19, 0.28])
    assert rung.admit_lags == pytest.approx([0.0, 0.09, 0.08])
    assert rung.queue_waits == pytest.approx([0.0, 0.0, 0.1])
    assert (rung.submitted, rung.served, rung.shed) == (3, 3, 0)
    assert rung.depths == [1, 1, 2]
    assert rung.wall == pytest.approx(0.3)
    # Three decisions from the first due time (0.0) to the last finish.
    assert rung.completion_rate == pytest.approx(10.0)
    # The wrapper used to sample the depth is gone again.
    assert "submit" not in vars(server)


def test_overloaded_rung_completes_at_the_server_capacity():
    clock = FakeClock()
    manager = IncidentManager(default_teams(), clock=clock)
    server = StreamServer(manager, service_time=0.1)
    # 20 arrivals offered at 40/s to a server that completes 10/s.
    arrivals = [(k / 40.0, _incident(k + 1)) for k in range(20)]
    rung = workloads.run_rung(server, clock, arrivals)
    assert (rung.served, rung.shed) == (20, 0)
    assert rung.completion_rate == pytest.approx(10.0)


def test_completion_rate_skips_shed_outcomes():
    outcomes = [
        SimpleNamespace(incident_id=1, shed=False, finished_at=10.5),
        SimpleNamespace(incident_id=2, shed=True, finished_at=10.6),
        SimpleNamespace(incident_id=3, shed=False, finished_at=11.0),
    ]
    assert measure.completion_rate(10.0, {1: 0.0, 2: 0.1, 3: 0.2}, outcomes) == 2.0
    assert measure.completion_rate(10.0, {2: 0.1}, outcomes[1:2]) == 0.0


def test_poisson_schedule_spans_the_nominal_interval():
    offsets = history.poisson_schedule(120, 16.0, seed=3)
    assert offsets == sorted(offsets)
    assert len(offsets) == 120 and 0.0 <= offsets[0] and offsets[-1] <= 120 / 16.0
    assert offsets == history.poisson_schedule(120, 16.0, seed=3)
    assert offsets != history.poisson_schedule(120, 16.0, seed=4)


def test_due_time_latencies_sort_by_due_time():
    outcomes = [
        SimpleNamespace(incident_id=2, submitted_at=10.5, finished_at=11.0),
        SimpleNamespace(incident_id=1, submitted_at=10.2, finished_at=10.4),
    ]
    rows = measure.due_time_latencies(10.0, {1: 0.1, 2: 0.3}, outcomes)
    assert [r[0] for r in rows] == [1, 2]
    assert rows[0][1:] == pytest.approx((0.3, 0.1))
    assert rows[1][1:] == pytest.approx((0.7, 0.2))


# -- sustained_rate_ips ---------------------------------------------------


def test_sustained_rate_is_the_top_of_the_passing_run_of_rungs():
    rungs = [
        measure.Rung(12, 80.0, 0, False),
        measure.Rung(24, 150.0, 0, False),
        measure.Rung(36, 300.0, 0, True),  # tail fine, backlog growing
        measure.Rung(48, 200.0, 0, False),  # a lucky pass above a failure
    ]
    assert measure.sustained_rate(rungs) == 24


def test_sustained_rate_fails_rungs_on_tail_and_shed():
    assert measure.sustained_rate(
        [measure.Rung(12, 80.0, 0, False), measure.Rung(24, 501.0, 0, False)]
    ) == 12
    assert measure.sustained_rate(
        [measure.Rung(24, 80.0, 1, False), measure.Rung(12, 80.0, 0, False)]
    ) == 12
    assert measure.sustained_rate([measure.Rung(12, 900.0, 0, False)]) == 0.0


def test_backlog_growing_compares_late_and_early_queue_depths():
    assert not measure.backlog_growing([0, 1, 0, 2, 1, 0] * 5, 4)
    assert measure.backlog_growing(list(range(30)), 4)  # one more per arrival
    spiky = [0, 9, 0, 1, 0, 7] * 5  # bursts that drain, no trend
    assert not measure.backlog_growing(spiky, 4)
    assert not measure.backlog_growing([0, 50], 4)  # too short to judge


# -- self-time subtraction ------------------------------------------------


def test_self_time_subtracts_merged_and_clipped_children():
    nodes = [
        measure.Node("root", None, "root", 0.0, 10.0),
        measure.Node("a", "root", "a", 1.0, 3.0),
        measure.Node("b", "root", "b", 2.0, 5.0),  # overlaps a
        measure.Node("c", "root", "c", 9.0, 12.0),  # outlives root
        measure.Node("t", "a", "timer", 1.5, 2.0),
    ]
    selfs = measure.self_times(nodes)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["a"] == pytest.approx(1.5)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["t"] == pytest.approx(0.5)


def _span(span_id, parent, name, start, end, **attrs):
    return Span(name, "trace-1", span_id, parent, start, end, dict(attrs))


def test_layer_table_accounts_for_the_whole_handle_span():
    spans = [
        _span("1", None, "serve.handle", 0.0, 10.0),
        _span("2", "1", "scout.call", 1.0, 9.0, team="PhyNet"),
        _span("3", "2", "scout.features", 2.0, 8.0),
        _span("4", "1", "serve.compose", 9.0, 9.5),
    ]
    records = [("store.series", "3", 3.0, 5.0)]
    acc = probes.SpanAccount(spans, records)
    rows = {layer: share for layer, _, _, share in acc.layer_rows()}
    assert rows == pytest.approx(
        {
            "monitoring.store": 0.2,
            "core.features": 0.4,
            "serving.manager.compose": 0.05,
            "serving.manager": 0.15,  # serve.handle self time
            "unaccounted": 0.2,  # scout.call self time
        }
    )
    assert sum(rows.values()) == pytest.approx(1.0)
    assert acc.self_ms("serve.handle") == pytest.approx([1500.0])
    assert acc.durations_ms("scout.call", team="PhyNet") == pytest.approx([8000.0])
    assert acc.durations_ms("scout.call", team="DNS") == []


# -- failed_share ---------------------------------------------------------


def test_failed_share_counts_shed_and_non_ok_calls():
    assert measure.failed_share(20, shed=1, non_ok_calls=3) == 0.2
    assert measure.failed_share(5) == 0.0
    with pytest.raises(ValueError):
        measure.failed_share(0)


def test_non_ok_outcomes_are_counted_per_call():
    statuses = [CallStatus.OK, CallStatus.ERROR, CallStatus.TIMEOUT, CallStatus.BREAKER_OPEN]
    decision = SimpleNamespace(
        outcomes=tuple(
            ScoutCallOutcome(f"team{i}", status, None) for i, status in enumerate(statuses)
        )
    )
    healthy = SimpleNamespace(outcomes=(ScoutCallOutcome("team0", CallStatus.OK, 0.1),))
    calls, bad = workloads._outcome_failures([decision, healthy])
    assert (calls, bad) == (5, 3)
    result = workloads.Result()
    result.count(2 + calls, non_ok_calls=bad)  # two served arrivals
    result.count(1, shed=1)  # one shed arrival
    assert (result.attempted, result.failed) == (8, 4)
    assert result.failed_share == pytest.approx(0.5)


# -- per-layer metrics a workload does not measure -----------------------


def test_only_declared_layers_default_to_zero(monkeypatch):
    def partial(seed, seconds, trace):
        result = workloads.Result()
        result.count(1)
        result.metrics["core.features.ms_p50"] = 1.0
        return result

    monkeypatch.setitem(workloads.WORKLOADS, "partial", partial)
    monkeypatch.setitem(workloads.NOT_EXERCISED, "partial", ("serving.fleet.",))
    metrics = workloads.run("partial", 1, 1.0, True).metrics
    assert metrics["serving.fleet.rank_ms_p50"] == 0.0
    assert metrics["core.features.ms_p50"] == 1.0
    # A layer the workload should measure but did not stays missing.
    assert "core.features.ms_p99" not in metrics


def test_not_exercised_never_hides_a_layer_the_workload_measures():
    assert set(workloads.NOT_EXERCISED) == set(workloads.WORKLOADS)
    for prefixes in workloads.NOT_EXERCISED.values():
        assert not any(m.startswith(prefixes) for m in ("obs.trace_overhead_x",
                                                        "serving.failed_share"))
