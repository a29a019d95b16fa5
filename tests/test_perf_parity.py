"""Parity tests for the vectorized/parallel fast paths.

Every optimization in the pipeline — flat-array tree inference,
pre-drawn parallel forest fitting, batched monitoring queries, sharded
dataset builds, and the batched CUSUM scan — claims bit-identical
results to its simple serial counterpart.  These tests hold each one to
that claim.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    database_config,
    dns_config,
    phynet_config,
    slb_config,
    storage_config,
)
from repro.core import ComponentExtractor, CPDPlus, FeatureBuilder, FeatureSchema
from repro.core.extraction import ExtractedComponents
from repro.datacenter.components import ComponentKind
from repro.ml import RandomForestClassifier
from repro.ml.cpd import CusumDetector
from repro.ml.tree import DecisionTreeClassifier
from repro.datacenter.components import Component
from repro.monitoring import MonitoringStore
from repro.monitoring.base import (
    DataKind,
    DatasetSchema,
    EventSpec,
    FailureEffect,
)
from repro.monitoring.generators import (
    normal_at,
    normal_grid,
    uniform_at,
    uniform_grid,
    uniform_mixed,
)

from . import feature_oracle as oracle


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(400, 8))
    y = ((X[:, 0] - X[:, 3] * X[:, 1]) > 0.2).astype(int)
    return X, y


# -- flat-tree inference ---------------------------------------------------


def test_flat_predict_matches_node_walk(data):
    X, y = data
    tree = DecisionTreeClassifier(max_depth=None, rng=5).fit(X, y)
    assert np.array_equal(tree.predict_proba(X), tree.predict_proba_nodes(X))


def test_flat_predict_matches_node_walk_unseen(data):
    X, y = data
    tree = DecisionTreeClassifier(max_depth=6, rng=5).fit(X, y)
    fresh = np.random.default_rng(23).normal(size=(200, 8)) * 3.0
    assert np.array_equal(tree.predict_proba(fresh), tree.predict_proba_nodes(fresh))


def test_deep_tree_introspection_is_iterative():
    # A pathological one-point-per-leaf staircase produces a tree deeper
    # than Python's default recursion limit would allow to walk.
    n = 2000
    X = np.arange(n, dtype=float).reshape(-1, 1)
    y = (np.arange(n) % 2).astype(int)
    tree = DecisionTreeClassifier(max_depth=None, min_samples_leaf=1, rng=0)
    tree.fit(X, y)
    assert tree.depth_ > 0
    assert tree.n_leaves_ >= 2
    assert np.array_equal(tree.predict(X), y)


# -- forest parallelism ----------------------------------------------------


def test_forest_parallel_matches_serial(data):
    X, y = data
    serial = RandomForestClassifier(n_estimators=12, rng=9, n_jobs=1).fit(X, y)
    parallel = RandomForestClassifier(n_estimators=12, rng=9, n_jobs=2).fit(X, y)
    assert np.array_equal(serial.predict_proba(X), parallel.predict_proba(X))
    assert np.array_equal(
        serial.feature_importances_, parallel.feature_importances_
    )


# -- batched generators ----------------------------------------------------


def test_uniform_grid_matches_uniform_at():
    rng = np.random.default_rng(2)
    seeds = rng.integers(0, 2**63, size=10, dtype=np.uint64)
    indices = np.arange(500, 900, dtype=np.uint64)
    for stream in (0, 3, 1001):
        grid = uniform_grid(seeds, indices, stream)
        ngrid = normal_grid(seeds, indices, stream)
        for row, seed in enumerate(seeds):
            assert np.array_equal(grid[row], uniform_at(int(seed), indices, stream))
            assert np.array_equal(ngrid[row], normal_at(int(seed), indices, stream))


def test_uniform_mixed_matches_uniform_at():
    rng = np.random.default_rng(4)
    seeds = rng.integers(0, 2**63, size=64, dtype=np.uint64)
    indices = rng.integers(0, 10_000, size=64, dtype=np.uint64)
    mixed = uniform_mixed(seeds, indices, stream=1002)
    for k in range(len(seeds)):
        expected = uniform_at(int(seeds[k]), indices[k : k + 1], stream=1002)
        assert mixed[k] == expected[0]


# -- batched store queries -------------------------------------------------


def _devices(sim, limit=12):
    out = []
    for kind in ComponentKind:
        out.extend(sim.topology.components(kind)[:limit])
    return out


def test_query_series_batch_matches_scalar(sim):
    store = sim.store
    devices = _devices(sim)
    names = [
        n for n in store.dataset_names
        if store.schema(n).kind is DataKind.TIME_SERIES
    ]
    assert names
    for name in names:
        for window in [(0.0, 7200.0), (4e6, 4e6 + 7200.0), (-9000.0, -4000.0)]:
            batch = store.query_series_batch(name, devices, *window)
            for device, got in zip(devices, batch):
                want = store.query_series(name, device, *window)
                if want is None:
                    assert got is None
                else:
                    assert np.array_equal(want.timestamps, got.timestamps)
                    assert np.array_equal(want.values, got.values)


def test_query_events_batch_matches_scalar(sim):
    store = sim.store
    devices = _devices(sim)
    names = [
        n for n in store.dataset_names
        if store.schema(n).kind is DataKind.EVENT
    ]
    assert names
    for name in names:
        for window in [(0.0, 7200.0), (4e6, 4e6 + 7200.0)]:
            batch = store.query_events_batch(name, devices, *window)
            for device, got in zip(devices, batch):
                want = store.query_events(name, device, *window)
                if want is None:
                    assert got is None
                else:
                    assert np.array_equal(want.timestamps, got.timestamps)
                    assert want.types == got.types


def test_query_event_type_counts_batch_generated_matches_scalar():
    """The un-sharded count batch equals per-device scalar queries.

    Covers a zero-rate type, burst effects straddling either window
    edge (and one covering it), an uncovered component (None) and an
    inactive dataset, against both ``query_event_type_counts`` and
    ``query_events(...).count_by_type()`` for the nonzero types.
    """
    schema = DatasetSchema(
        name="probe_events",
        kind=DataKind.EVENT,
        component_kinds=frozenset({ComponentKind.SWITCH, ComponentKind.SERVER}),
        events=EventSpec(rates={"busy": 40.0, "quiet": 0.0, "rare": 0.7}),
    )
    store = MonitoringStore([schema], seed=13)
    devices = [Component(ComponentKind.SWITCH, f"sw-{i}") for i in range(5)]
    devices += [
        Component(ComponentKind.SERVER, "srv-0"),
        Component(ComponentKind.VM, "vm-0"),  # not covered: None
        Component(ComponentKind.SWITCH, "sw-1"),  # duplicate device
    ]
    t0, t1 = 86400.0 * 3 + 17.0, 86400.0 * 3 + 7217.0
    for effect in (
        FailureEffect("probe_events", "sw-0", t0 - 900.0, t0 + 600.0,
                      mode="burst", event_type="busy", rate=90.0),
        FailureEffect("probe_events", "sw-2", t1 - 300.0, t1 + 900.0,
                      mode="burst", event_type="quiet", rate=12.0),
        FailureEffect("probe_events", "sw-3", t0 - 60.0, t1 + 60.0,
                      mode="burst", event_type="novel", rate=3.0),
        FailureEffect("probe_events", "srv-0", t1 + 10.0, t1 + 500.0,
                      mode="burst", event_type="busy", rate=50.0),
    ):
        store.inject(effect)
    for window in [(t0, t1), (0.0, 7200.0), (-500.0, 30.0), (t0, t0)]:
        batch = store.query_event_type_counts_batch("probe_events", devices, *window)
        assert len(batch) == len(devices)
        for device, got in zip(devices, batch):
            want = store.query_event_type_counts("probe_events", device, *window)
            assert got == want
            if want is None:
                assert device.kind is ComponentKind.VM
                continue
            events = store.query_events("probe_events", device, *window)
            nonzero = {k: v for k, v in got.items() if v}
            assert nonzero == events.count_by_type()
    store.deactivate("probe_events")
    assert store.query_event_type_counts_batch(
        "probe_events", devices, t0, t1
    ) == [None] * len(devices)


def test_event_series_count_of_matches_scan(sim):
    store = sim.store
    devices = _devices(sim, limit=4)
    for name in store.dataset_names:
        if store.schema(name).kind is not DataKind.EVENT:
            continue
        for device in devices:
            events = store.query_events(name, device, 0.0, 86400.0)
            if events is None:
                continue
            for event_type in set(events.types) | {"no-such-type"}:
                scan = sum(1 for t in events.types if t == event_type)
                assert events.count_of(event_type) == scan


# -- batched CUSUM ---------------------------------------------------------


def test_detect_any_matches_per_row_detect():
    detector = CusumDetector(threshold=5.0)
    rng = np.random.default_rng(31)
    matrix = rng.normal(size=(120, 24))
    matrix[::5] += np.linspace(0.0, 7.0, 24)  # drifting rows
    matrix[7] = 3.25  # constant (zero-std) row
    got = detector.detect_any(matrix)
    want = np.array([bool(detector.detect(row)) for row in matrix])
    assert np.array_equal(got, want)


def test_detect_any_short_rows_and_shape_checks():
    detector = CusumDetector(threshold=5.0)
    assert not detector.detect_any(np.zeros((4, 2))).any()
    with pytest.raises(ValueError):
        detector.detect_any(np.zeros(5))


# -- end-to-end determinism ------------------------------------------------


def test_dataset_build_parallel_matches_serial(framework, incidents):
    subset = incidents[:40]
    serial = framework.dataset(subset)
    parallel = framework.dataset(subset, n_jobs=2)
    assert np.array_equal(serial.X, parallel.X, equal_nan=True)
    assert np.array_equal(serial.signals_matrix, parallel.signals_matrix)
    assert [e.triggers for e in serial] == [e.triggers for e in parallel]
    assert [e.static_route for e in serial] == [e.static_route for e in parallel]


_SCOUT_CONFIGS = {
    "PhyNet": phynet_config,
    "Storage": storage_config,
    "SLB": slb_config,
    "DNS": dns_config,
    "Database": database_config,
}
_KINDS = tuple(ComponentKind)


@pytest.fixture(scope="module")
def oracle_stores(sim):
    """A generated and a sharded copy of the fixture store, free to mutate."""
    generated = pickle.loads(pickle.dumps(sim.store))
    sharded = pickle.loads(pickle.dumps(sim.store))
    sharded.enable_shards(series_chunk=64, event_chunk=64)
    return {False: generated, True: sharded}


@st.composite
def _incident_case(draw, topology, incidents, monitored):
    team = draw(st.sampled_from(sorted(_SCOUT_CONFIGS)))
    # Mostly kinds the Scout's datasets cover, so most draws pull data.
    kinds = st.one_of(st.sampled_from(monitored[team]), st.sampled_from(_KINDS))
    if draw(st.booleans()):
        incident = incidents[draw(st.integers(0, len(incidents) - 1))]
        mentioned, dependencies, t = None, None, incident.created_at
        text = incident.text
    else:
        text = None
        picks = draw(
            st.lists(
                st.tuples(kinds, st.integers(0, 10**6)),
                min_size=1,
                max_size=5,
            )
        )
        components = []
        for kind, index in picks:
            pool = topology.components(kind)
            components.append(pool[index % len(pool)])
        split = draw(st.integers(0, len(components)))
        mentioned, dependencies = components[:split], components[split:]
        lookback = _SCOUT_CONFIGS[team]().lookback
        t = draw(
            st.one_of(
                # The reference window clamped at the epoch: empty,
                # one sample, or a few.
                st.floats(0.0, 2.2 * lookback),
                st.integers(-2, 4).map(lambda k: lookback + k * 150.0),
                # Look-back windows of a handful of samples.
                st.integers(0, 16).map(lambda k: k * 150.0),
                st.floats(0.0, 118.0 * 86400.0),
                st.integers(0, 118 * 288).map(lambda i: i * 300.0),
            )
        )
    effects = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("shift", "scale", "spike", "burst")),
                st.integers(0, 10**6),  # which device
                st.integers(0, 10**6),  # which dataset
                st.floats(-3.0, 0.5),  # start, in lookbacks before t
                st.floats(0.0, 2.0),  # length, in lookbacks
                st.floats(0.2, 60.0),  # magnitude / burst rate
            ),
            max_size=4,
        )
    )
    deactivate = draw(st.lists(st.integers(0, 10**6), max_size=1))
    sharded = draw(st.booleans())
    return team, text, mentioned, dependencies, t, effects, deactivate, sharded


def _inject(store, builder, extracted, t, effects):
    """Turn drawn effect tuples into FailureEffects on observed devices."""
    T = builder.config.lookback
    by_kind = {DataKind.TIME_SERIES: [], DataKind.EVENT: []}
    for ref in builder.config.monitoring:
        by_kind[store.schema(ref.locator).kind].append(ref.locator)
    devices = []
    for component in extracted.all:
        for ref in builder.config.monitoring:
            kinds = store.schema(ref.locator).component_kinds
            devices.extend(builder._observables(component, kinds))
    if not devices:
        return
    for mode, device_pick, dataset_pick, start, length, size in effects:
        kind = DataKind.EVENT if mode == "burst" else DataKind.TIME_SERIES
        locators = by_kind[kind]
        if not locators:
            continue
        locator = locators[dataset_pick % len(locators)]
        device = devices[device_pick % len(devices)]
        t0 = t + start * T
        t1 = t0 + length * T
        if mode == "burst":
            schema = store.schema(locator)
            event_type = sorted(schema.events.rates)[dataset_pick % len(schema.events.rates)]
            effect = FailureEffect(
                locator, device.name, t0, t1, mode="burst",
                event_type=event_type, rate=size,
            )
        else:
            effect = FailureEffect(locator, device.name, t0, t1, mode, size)
        store.inject(effect)


def _monitored_kinds(store):
    """Per Scout, the component kinds some of its datasets cover."""
    out = {}
    for team, factory in _SCOUT_CONFIGS.items():
        schema = FeatureSchema(factory(), store)
        out[team] = sorted(
            {group.kind for group in schema.ts_groups}
            | {feature.kind for feature in schema.event_features}
        )
    return out


@given(case=st.data())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_features_and_signals_match_scalar_oracle(sim, incidents, oracle_stores, case):
    """The incident panel equals one scalar pull per device and window.

    Random incidents for all five starter Scouts, injected shift,
    scale, spike and burst effects, deactivated datasets, timestamps
    whose reference window is clamped or short, shards on and off:
    feature vectors, CPD+ signal vectors and trigger tuples must be
    byte-equal to the per-device scalar oracle in ``feature_oracle``.
    """
    team, text, mentioned, dependencies, t, effects, deactivate, sharded = case.draw(
        _incident_case(sim.topology, list(incidents), _monitored_kinds(sim.store))
    )
    store = oracle_stores[sharded]
    config = _SCOUT_CONFIGS[team]()
    builder = FeatureBuilder(config, sim.topology, store)
    cpd = CPDPlus(builder)
    if text is not None:
        extracted = ComponentExtractor(config, sim.topology).extract(text)
    else:
        extracted = ExtractedComponents(mentioned, dependencies)
    snapshot = store.snapshot_effects()
    locators = sorted({ref.locator for ref in config.monitoring})
    down = sorted({locators[i % len(locators)] for i in deactivate})
    try:
        _inject(store, builder, extracted, t, effects)
        for locator in down:
            store.deactivate(locator)
        _assert_matches_oracle(cpd, extracted, t)
    finally:
        for locator in down:
            store.activate(locator)
        store.restore_effects(snapshot)


def _assert_matches_oracle(cpd, extracted, t):
    builder = cpd.builder
    want_x = oracle.features(builder, extracted, t)
    want_s, want_triggers = oracle.signals(cpd, extracted, t)
    builder.begin_incident()
    got_x = builder.features(extracted, t)
    got_s, got_triggers = cpd.signals(extracted, t)
    assert got_x.tobytes() == want_x.tobytes()
    assert got_s.tobytes() == want_s.tobytes()
    assert tuple(got_triggers) == tuple(want_triggers)


@pytest.mark.parametrize("sharded", [False, True], ids=["generated", "sharded"])
@pytest.mark.parametrize("offset", [-150.0, 0.0, 150.0, 300.0, 450.0, 600.0])
def test_short_reference_windows_match_scalar_oracle(sim, oracle_stores, offset, sharded):
    """Near the epoch the reference window holds 0, 1, 2 or 3 samples."""
    config = phynet_config()
    builder = FeatureBuilder(config, sim.topology, oracle_stores[sharded])
    cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
    server = sim.topology.components(ComponentKind.SERVER)[-1]
    extracted = ExtractedComponents([cluster, server], [])
    _assert_matches_oracle(CPDPlus(builder), extracted, config.lookback + offset)