"""Per-device scalar reference for Scout features and CPD+ signals.

The plain reading of §5.2 and §5.2.2, one scalar store query per
(dataset, device, window): ``query_series`` for every device's
look-back and reference windows, ``query_events(...).count_of`` for
every event count.  Nothing is batched, shared or memoized, so the
fast paths in ``repro.core`` (the incident panel, the incremental
engine) are held to these functions byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import _stats
from repro.datacenter.components import ComponentKind

_LEAF_KINDS = (ComponentKind.SERVER, ComponentKind.SWITCH, ComponentKind.VM)
_CONTAINER_KINDS = (ComponentKind.CLUSTER, ComponentKind.DC)
_CPD_LEAF_KINDS = (ComponentKind.SERVER, ComponentKind.SWITCH)


def observables(topology, config, component, dataset_kinds):
    """The devices whose data represents ``component`` in a dataset."""
    if component.kind in dataset_kinds:
        return [component]
    if component.kind not in _CONTAINER_KINDS:
        return []
    members = []
    for leaf in sorted(dataset_kinds & set(_LEAF_KINDS)):
        members.extend(topology.members(component.name, leaf))
    cap = config.max_members_per_container
    if len(members) > cap:
        idx = np.linspace(0, len(members) - 1, cap).astype(int)
        members = [members[i] for i in idx]
    return members


def _devices(builder, components, locator):
    kinds = builder.store.schema(locator).component_kinds
    return [
        device
        for component in components
        for device in observables(builder.topology, builder.config, component, kinds)
    ]


def normalized_window(store, config, locator, device, t):
    """The look-back window z-scored against its trailing reference."""
    T = config.lookback
    ref_span = config.reference_multiple * T
    window = store.query_series(locator, device, t - T, t)
    if window is None:
        return None
    if len(window) == 0:
        return np.empty(0)
    reference = store.query_series(locator, device, t - T - ref_span, t - T)
    if reference is None or len(reference) < 2:
        mean, std = window.values.mean(), window.values.std()
    else:
        mean, std = reference.values.mean(), reference.values.std()
    if std == 0.0:
        std = 1.0
    return (window.values - mean) / std


def features(builder, extracted, t):
    """The feature vector of ``builder.schema``, one scalar pull at a time."""
    store, config, schema = builder.store, builder.config, builder.schema
    width = len(_stats(np.empty(0)))
    vector = np.empty(len(schema))
    pos = 0
    for group in schema.ts_groups:
        components = extracted.of_kind(group.kind)
        windows = []
        any_active = False
        for locator in group.locators:
            if not components or not store.is_active(locator):
                continue
            any_active = True
            for device in _devices(builder, components, locator):
                z = normalized_window(store, config, locator, device, t)
                if z is not None and len(z):
                    windows.append(z)
        if not components:
            vector[pos : pos + width] = 0.0
        elif not any_active:
            vector[pos : pos + width] = np.nan
        elif not windows:
            vector[pos : pos + width] = 0.0
        else:
            vector[pos : pos + width] = _stats(np.concatenate(windows))
        pos += width
    T = config.lookback
    for feature in schema.event_features:
        components = extracted.of_kind(feature.kind)
        if not components:
            vector[pos] = 0.0
        elif not store.is_active(feature.locator):
            vector[pos] = np.nan
        else:
            count = 0
            for device in _devices(builder, components, feature.locator):
                events = store.query_events(feature.locator, device, t - T, t)
                if events is not None:
                    count += events.count_of(feature.event_type)
            vector[pos] = float(count)
        pos += 1
    for kind in config.kinds:
        vector[pos] = float(len(extracted.of_kind(kind)))
        pos += 1
    return vector


def signals(cpd, extracted, t):
    """CPD+'s signal vector and trigger strings, one scalar pull at a time."""
    builder = cpd.builder
    store, config, schema = builder.store, builder.config, builder.schema
    T = config.lookback
    vector = np.zeros(len(schema.ts_groups) + len(schema.event_features))
    triggers = []
    for g, group in enumerate(schema.ts_groups):
        components = extracted.of_kind(group.kind)
        if not components:
            continue
        detections = 0
        devices = 0
        for locator in group.locators:
            if not store.is_active(locator):
                continue
            rows, names = [], []
            for device in _devices(builder, components, locator):
                window = store.query_series(locator, device, t - T, t)
                if window is None or len(window) < 6:
                    continue
                devices += 1
                rows.append(window.values)
                names.append(device.name)
            if not rows:
                continue
            hits = cpd.detector.detect_any(np.vstack(rows))
            detections += int(hits.sum())
            if group.kind in _CPD_LEAF_KINDS:
                for name, hit in zip(names, hits):
                    if hit:
                        triggers.append(f"change-point in {locator} on {name}")
        if devices:
            vector[g] = detections / devices
    offset = len(schema.ts_groups)
    for e, feature in enumerate(schema.event_features):
        components = extracted.of_kind(feature.kind)
        if not components or not store.is_active(feature.locator):
            continue
        rate = store.schema(feature.locator).events.rates[feature.event_type]
        expected = rate * T / 3600.0
        threshold = max(expected + 1.64 * np.sqrt(expected) + 0.5, 2.5)
        abnormal = 0
        devices = 0
        for device in _devices(builder, components, feature.locator):
            devices += 1
            events = store.query_events(feature.locator, device, t - T, t)
            if events is None:
                continue
            count = events.count_of(feature.event_type)
            if count > threshold:
                abnormal += 1
                if feature.kind in _CPD_LEAF_KINDS:
                    triggers.append(
                        f"{count}x {feature.event_type} events in "
                        f"{feature.locator} on {device.name}"
                    )
        if devices:
            vector[offset + e] = abnormal / devices
    return vector, triggers
