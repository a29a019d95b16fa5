"""Feature-construction tests (§5.2)."""

import pickle

import numpy as np
import pytest

from repro.core import CPDPlus, ComponentExtractor, FeatureBuilder, STAT_NAMES
from repro.core.features import _stats
from repro.datacenter import ComponentKind
from repro.monitoring import FailureEffect, FakeClock, FaultPlan, FaultyStore
from repro.monitoring.base import DataKind
from repro.obs import Observability
from repro.serving.retry import RetryPolicy

_T = 86400.0 * 320  # beyond the workload horizon: guaranteed-healthy signals


@pytest.fixture()
def builder(sim, framework):
    b = FeatureBuilder(framework.config, sim.topology, sim.store)
    b.clear_cache()
    return b


@pytest.fixture(scope="module")
def extractor(sim, framework):
    return ComponentExtractor(framework.config, sim.topology)


class TestSchema:
    def test_eleven_stats(self):
        assert len(STAT_NAMES) == 11

    def test_fixed_length(self, builder):
        assert len(builder.schema) == len(builder.schema.names)

    def test_no_vm_monitoring_features(self, builder):
        # PhyNet has no VM-covering dataset: only the count feature.
        vm_features = [n for n in builder.schema.names if n.startswith("vm.")]
        assert vm_features == []
        assert "n_vm" in builder.schema.names

    def test_class_tag_merges_drop_datasets(self, builder):
        merged = [n for n in builder.schema.names if "PACKET_DROPS" in n]
        assert len(merged) > 0

    def test_index_of_agrees_with_names(self, builder):
        for i, name in enumerate(builder.schema.names):
            assert builder.schema.index_of(name) == i

    def test_index_of_unknown_name_raises(self, builder):
        with pytest.raises(ValueError):
            builder.schema.index_of("no.such.feature")


class TestCacheLifetimes:
    def test_clear_cache_resets_query_memos(self, builder, sim, extractor):
        device = sim.topology.components(ComponentKind.SWITCH)[0]
        locator = builder.config.monitoring[0].locator
        builder.series(locator, device, _T - 7200.0, _T)
        builder.features(extractor.extract(f"check {device.name}"), _T)
        assert builder._series_memo
        assert builder._panel_memo
        builder.clear_cache()
        assert not builder._series_memo
        assert not builder._norm_memo
        assert not builder._panel_memo

    def test_observables_memo_survives_clear_cache(self, builder, sim):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        kinds = frozenset({ComponentKind.SWITCH})
        members = builder._observables(cluster, kinds)
        assert members
        builder.clear_cache()
        # Topology-lifetime memo: same object, no recomputation needed.
        assert builder._observables_memo
        assert builder._observables(cluster, kinds) is members
        # The merged group replaces its member datasets.
        assert not any("link_drop_statistics" in n for n in builder.schema.names)

    def test_count_features_for_all_kinds(self, builder):
        for kind in ("vm", "server", "switch", "cluster", "dc"):
            assert f"n_{kind}" in builder.schema.names

    def test_event_features_per_type(self, builder):
        syslog_features = [
            n for n in builder.schema.names if "snmp_syslogs" in n
        ]
        # 3 event types × switch/cluster/dc component kinds.
        assert len(syslog_features) == 9


class TestVector:
    def test_length_matches_schema(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        vector = builder.features(extracted, _T)
        assert vector.shape == (len(builder.schema),)

    def test_absent_kind_features_zero(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        vector = builder.features(extracted, _T)
        # No server was extracted or implied: server stats are zero.
        server_idx = [
            i for i, n in enumerate(builder.schema.names)
            if n.startswith("server.")
        ]
        assert np.allclose(vector[server_idx], 0.0)

    def test_count_features(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        vector = builder.features(extracted, _T)
        assert vector[builder.schema.index_of("n_switch")] >= 1.0
        assert vector[builder.schema.index_of("n_vm")] == 0.0

    def test_healthy_signal_near_zero_stats(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"check {switch.name}")
        vector = builder.features(extracted, _T)
        mean_idx = builder.schema.index_of("switch.temperature.mean")
        assert abs(vector[mean_idx]) < 1.5  # z-scored healthy data

    def test_shift_effect_moves_percentiles(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[1]
        extracted = extractor.extract(f"check {switch.name}")
        baseline = builder.features(extracted, _T).copy()
        snapshot = sim.store.snapshot_effects()
        sim.store.inject(
            FailureEffect(
                "temperature", switch.name, _T - 1800.0, _T, "shift", 25.0
            )
        )
        builder.clear_cache()
        shifted = builder.features(extracted, _T)
        sim.store.restore_effects(snapshot)
        p99 = builder.schema.index_of("switch.temperature.p99")
        assert shifted[p99] > baseline[p99] + 3.0

    def test_deactivated_dataset_yields_nan(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"check {switch.name}")
        sim.store.deactivate("temperature")
        try:
            builder.clear_cache()
            vector = builder.features(extracted, _T)
            idx = builder.schema.index_of("switch.temperature.mean")
            assert np.isnan(vector[idx])
        finally:
            sim.store.activate("temperature")

    def test_event_count_feature(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[2]
        snapshot = sim.store.snapshot_effects()
        sim.store.inject(
            FailureEffect(
                "device_reboots", switch.name, _T - 3600.0, _T,
                mode="burst", event_type="reboot", rate=6.0,
            )
        )
        extracted = extractor.extract(f"check {switch.name}")
        builder.clear_cache()
        vector = builder.features(extracted, _T)
        sim.store.restore_effects(snapshot)
        idx = builder.schema.index_of("switch.device_reboots.reboot")
        assert vector[idx] >= 5.0

    def test_cluster_features_pool_members(self, sim, builder, extractor):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        extracted = extractor.extract(f"issues in cluster {cluster.name}")
        vector = builder.features(extracted, _T)
        idx = builder.schema.index_of("cluster.ping_statistics.mean")
        assert np.isfinite(vector[idx])

    def test_deterministic(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"check {switch.name}")
        a = builder.features(extracted, _T)
        builder.clear_cache()
        b = builder.features(extracted, _T)
        assert np.array_equal(a, b)


class TestDegenerateWindows:
    """Regression: <2-sample windows must zero-fill, never NaN.

    ``np.std``/``np.percentile`` warn-and-NaN on degenerate input, and a
    NaN here would be silently imputed with unrelated training means
    downstream — the features must stay deterministic and finite.
    """

    def test_empty_window_is_all_zeros(self):
        out = _stats(np.empty(0))
        assert out.shape == (len(STAT_NAMES),)
        assert np.array_equal(out, np.zeros(len(STAT_NAMES)))

    def test_single_sample_window_zero_fills_spread_slots(self):
        with np.errstate(all="raise"):  # any NaN-producing warning fails
            out = _stats(np.array([3.5]))
        by_name = dict(zip(STAT_NAMES, out))
        assert by_name["mean"] == 3.5
        assert by_name["min"] == 3.5
        assert by_name["max"] == 3.5
        # One observation carries no distributional information.
        assert by_name["std"] == 0.0
        assert all(by_name[f"p{p}"] == 0.0 for p in (1, 10, 25, 50, 75, 90, 99))
        assert np.all(np.isfinite(out))

    def test_two_samples_compute_full_stats(self):
        out = _stats(np.array([1.0, 3.0]))
        by_name = dict(zip(STAT_NAMES, out))
        assert by_name["mean"] == 2.0
        assert by_name["std"] == 1.0
        assert by_name["p50"] == 2.0
        assert np.all(np.isfinite(out))

    def test_degenerate_stats_are_deterministic(self):
        assert np.array_equal(_stats(np.array([7.25])), _stats(np.array([7.25])))


class TestBuilderInstrumentation:
    def test_query_and_cache_hit_counters(self, sim, builder):
        builder.obs = Observability(clock=FakeClock())
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        builder.series("cpu_usage", switch, _T - 3600, _T)  # miss
        builder.series("cpu_usage", switch, _T - 3600, _T)  # memo hit
        queries = builder.obs.metrics.get("monitoring_queries_total")
        hits = builder.obs.metrics.get("monitoring_cache_hits_total")
        assert queries.value(kind="series") == 1
        assert hits.value(kind="series") == 1

    def test_batched_prefetch_counts_one_query(self, sim, builder):
        builder.obs = Observability(clock=FakeClock())
        switches = sim.topology.components(ComponentKind.SWITCH)[:4]
        builder.prefetch_series("cpu_usage", switches, _T - 3600, _T)
        queries = builder.obs.metrics.get("monitoring_queries_total")
        assert queries.value(kind="series_batch") == 1
        assert queries.value(kind="series") == 0
        # The warmed memo serves later scalar pulls as cache hits.
        builder.series("cpu_usage", switches[0], _T - 3600, _T)
        hits = builder.obs.metrics.get("monitoring_cache_hits_total")
        assert hits.value(kind="series") == 1


class TestMemo:
    def test_cache_hit_returns_same_object(self, sim, builder):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        a = builder.series("cpu_usage", switch, _T - 3600, _T)
        b = builder.series("cpu_usage", switch, _T - 3600, _T)
        assert a is b

    def test_clear_cache_resets(self, sim, builder):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        a = builder.series("cpu_usage", switch, _T - 3600, _T)
        builder.clear_cache()
        b = builder.series("cpu_usage", switch, _T - 3600, _T)
        assert a is not b
        assert np.array_equal(a.values, b.values)


class TestIncidentPanel:
    """One pull per dataset per incident, memoized under the builder's rules."""

    @staticmethod
    def _cluster_incident(sim, extractor):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        return extractor.extract(f"issues in cluster {cluster.name}")

    @staticmethod
    def _faulty_builder(sim, framework, plan=None):
        store = FaultyStore(sim.store, plan or FaultPlan())
        builder = FeatureBuilder(framework.config, sim.topology, store)
        builder.obs = Observability(clock=FakeClock())
        return builder, store

    def test_one_pull_per_dataset_and_cpd_reuses_it(self, sim, framework, extractor):
        builder, store = self._faulty_builder(sim, framework)
        extracted = self._cluster_incident(sim, extractor)
        builder.begin_incident()
        builder.features(extracted, _T)
        panel = builder.incident_panel(extracted, _T)
        series = [
            name for name in panel.datasets
            if sim.store.schema(name).kind is DataKind.TIME_SERIES
        ]
        events = [name for name in panel.datasets if name not in series]
        assert series and events
        queries = builder.obs.metrics.get("monitoring_queries_total")
        assert queries.value(kind="series_batch") == len(series)
        assert queries.value(kind="event_counts_batch") == len(events)
        assert store.queries == len(panel.datasets)
        CPDPlus(builder).signals(extracted, _T)  # served from the memo
        assert store.queries == len(panel.datasets)

    def test_retry_reissues_only_the_failed_dataset(self, sim, framework, extractor):
        extracted = self._cluster_incident(sim, extractor)
        healthy, _ = self._faulty_builder(sim, framework)
        want = healthy.features(extracted, _T)
        builder, store = self._faulty_builder(
            sim, framework, FaultPlan(fail_queries=frozenset({3}))
        )
        builder.begin_incident()
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0, sleep=lambda s: None)
        got = policy.call(lambda: builder.features(extracted, _T))
        n_datasets = len(builder.incident_panel(extracted, _T).datasets)
        assert store.injected_errors == 1
        assert store.queries == n_datasets + 1  # only the failed pull again
        assert got.tobytes() == want.tobytes()

    def test_begin_incident_without_ttl_resets_the_panel(self, sim, builder, extractor):
        builder.features(self._cluster_incident(sim, extractor), _T)
        assert builder._panel_memo
        builder.begin_incident()
        assert not builder._panel_memo

    def test_ttl_storm_pulls_only_missing_devices(self, sim, framework, extractor):
        builder, store = self._faulty_builder(sim, framework)
        builder.cache_ttl = 100.0
        builder.clock = FakeClock()
        switches = sim.topology.components(ComponentKind.SWITCH)
        one = extractor.extract(f"check {switches[0].name}")
        two = extractor.extract(f"check {switches[0].name} and {switches[1].name}")
        fresh = FeatureBuilder(framework.config, sim.topology, sim.store)
        builder.begin_incident()
        builder.features(one, _T)
        first = store.queries
        builder.begin_incident()
        got = builder.features(two, _T)  # pulls the second switch only
        assert store.queries == 2 * first
        assert got.tobytes() == fresh.features(two, _T).tobytes()
        builder.begin_incident()
        builder.features(one, _T)  # every row already pulled
        assert store.queries == 2 * first
        cross = builder.obs.metrics.get("monitoring_cache_cross_hits_total")
        assert cross.total() == first
        builder.clock.advance(100.0)
        builder.begin_incident()  # expired: the panel goes
        assert not builder._panel_memo

    def test_pickled_builder_drops_memos(self, sim, framework, extractor):
        builder = FeatureBuilder(framework.config, sim.topology, sim.store)
        extracted = self._cluster_incident(sim, extractor)
        builder.features(extracted, _T)
        builder.series("cpu_usage", sim.topology.components(ComponentKind.SWITCH)[0],
                       _T - 3600, _T)
        clone = pickle.loads(pickle.dumps(builder))
        assert builder._panel_memo and builder._series_memo
        for name in ("_panel_memo", "_series_memo", "_norm_memo",
                     "_panel_stamps", "_series_stamps", "_norm_stamps"):
            assert getattr(clone, name) == {}, name
        assert clone.features(extracted, _T).tobytes() == (
            builder.features(extracted, _T).tobytes()
        )
