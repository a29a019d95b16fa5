"""Feature construction (§5.2).

Per component type, the Scout builds a fixed-length feature block:

* for every time-series *group* (datasets sharing a class tag are
  merged; others stand alone): the paper's eleven statistics — mean,
  std, min, max and the 1/10/25/50/75/90/99th percentiles — computed
  over all normalized points of all relevant components in the
  look-back window ``[t - T, t]``;
* for every event dataset and event type: the event count;
* plus one count-of-components feature per declared component type.

Series are normalized against a trailing reference window (healthy
recent history), so a failure-induced distribution shift shows up in
the upper/lower percentiles exactly as §5.2 describes.  Component types
with no covering dataset (VMs, for PhyNet) contribute no monitoring
features; component types with no extracted components contribute
zeros; *deactivated* monitoring systems contribute NaNs, which the
serving layer imputes with training means (§6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.spec import ScoutConfig
from ..datacenter.components import Component, ComponentKind
from ..datacenter.topology import Topology
from ..monitoring.base import DataKind
from ..monitoring.store import MonitoringStore
from .extraction import ExtractedComponents
from .window_agg import Block, BucketQuantiles, WindowAggregator

__all__ = ["FeatureSchema", "FeatureBuilder", "IncidentPanel", "STAT_NAMES"]

# Event noise is binned at one-minute granularity (mirrors the store).
_EVENT_BIN = 60.0

STAT_NAMES = (
    "mean", "std", "min", "max",
    "p1", "p10", "p25", "p50", "p75", "p90", "p99",
)
_PERCENTILES = (1, 10, 25, 50, 75, 90, 99)

_LEAF_KINDS = (ComponentKind.SERVER, ComponentKind.SWITCH, ComponentKind.VM)
_CONTAINER_KINDS = (ComponentKind.CLUSTER, ComponentKind.DC)


@dataclass(frozen=True)
class _TsGroup:
    """A mergeable group of time-series datasets (same class tag)."""

    kind: ComponentKind
    label: str
    locators: tuple[str, ...]


@dataclass(frozen=True)
class _EventFeature:
    kind: ComponentKind
    locator: str
    event_type: str


class FeatureSchema:
    """The fixed feature layout implied by a Scout config."""

    def __init__(self, config: ScoutConfig, store: MonitoringStore) -> None:
        self.config = config
        self.ts_groups: list[_TsGroup] = []
        self.event_features: list[_EventFeature] = []
        for kind in config.kinds:
            singles: list[tuple[str, str]] = []  # (label, locator)
            by_class: dict[str, list[str]] = {}
            for ref in config.monitoring:
                schema = store.schema(ref.locator)
                if not _covers(schema.component_kinds, kind):
                    continue
                if schema.kind is DataKind.TIME_SERIES:
                    if ref.class_tag:
                        by_class.setdefault(ref.class_tag, []).append(ref.locator)
                    else:
                        singles.append((ref.locator, ref.locator))
                else:
                    for event_type in sorted(schema.events.rates):
                        self.event_features.append(
                            _EventFeature(kind, ref.locator, event_type)
                        )
            for class_tag in sorted(by_class):
                self.ts_groups.append(
                    _TsGroup(kind, class_tag, tuple(sorted(by_class[class_tag])))
                )
            for label, locator in sorted(singles):
                self.ts_groups.append(_TsGroup(kind, label, (locator,)))
        # Stable global ordering: time-series stat blocks, then event
        # counts, then component counts.
        self.names: list[str] = []
        for group in self.ts_groups:
            for stat in STAT_NAMES:
                self.names.append(f"{group.kind.value}.{group.label}.{stat}")
        for feature in self.event_features:
            self.names.append(
                f"{feature.kind.value}.{feature.locator}.{feature.event_type}"
            )
        for kind in config.kinds:
            self.names.append(f"n_{kind.value}")
        self._index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not in the feature schema") from None


def _covers(dataset_kinds: frozenset[ComponentKind], kind: ComponentKind) -> bool:
    """Does a dataset produce data for components of ``kind``?

    Containers (cluster, DC) are covered indirectly: their features pool
    the signals of their leaf members.
    """
    if kind in dataset_kinds:
        return True
    if kind in _CONTAINER_KINDS:
        return bool(dataset_kinds & set(_LEAF_KINDS))
    return False


def _stats(pooled: np.ndarray) -> np.ndarray:
    """The eleven §5.2 statistics over one pooled window.

    Degenerate windows are zero-filled deterministically rather than
    letting numpy warn-and-NaN its way into the RF: an empty window is
    all zeros, and a single-sample window keeps its mean/min/max but
    zero-fills the std and percentile slots (one observation carries
    no distributional information — a spread of 0 is the honest
    answer, and NaN here would be imputed with unrelated training
    means downstream).
    """
    out = np.zeros(len(STAT_NAMES))
    if pooled.size == 0:
        return out
    out[0] = pooled.mean()
    out[2] = pooled.min()
    out[3] = pooled.max()
    if pooled.size < 2:
        return out  # std and percentile slots stay zero-filled
    out[1] = pooled.std()
    # Full-recompute parity oracle for the incremental engine: this is
    # the one sanctioned full-window percentile scan on the hot path.
    out[4:] = np.percentile(pooled, _PERCENTILES)  # scoutlint: disable=hot-path-recompute
    return out


def _zscore(window: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Each window row z-scored against its trailing reference row.

    A reference of fewer than two samples (clamped at the simulation
    epoch) falls back to the window's own mean and std, and a zero std
    divides by one.  Row-wise reductions over C-contiguous matrices
    equal the per-device 1-D reductions bit-for-bit.
    """
    if window.shape[1] == 0:
        return window
    basis = reference if reference.shape[1] >= 2 else window
    means = basis.mean(axis=1)
    stds = basis.std(axis=1)
    stds = np.where(stds == 0.0, 1.0, stds)
    return (window - means[:, np.newaxis]) / stds[:, np.newaxis]


class _SeriesPanel:
    """One time-series dataset's pulled rows at one incident time ``t``.

    One row per device whose query returned data, all on the dataset's
    sampling grid: the raw look-back window ``[t - T, t]`` and the
    trailing reference window, split from a single pull.
    """

    __slots__ = ("names", "rows", "window", "reference", "_normalized")

    def __init__(
        self, names: list[str], window: np.ndarray, reference: np.ndarray
    ) -> None:
        self.names = names
        self.rows = {name: row for row, name in enumerate(names)}
        self.window = window
        self.reference = reference
        self._normalized: np.ndarray | None = None

    @property
    def normalized(self) -> np.ndarray:
        """The window z-scored per row (computed on first use)."""
        if self._normalized is None:
            self._normalized = _zscore(self.window, self.reference)
        return self._normalized

    def extended(self, more: "_SeriesPanel") -> "_SeriesPanel":
        """These rows followed by ``more``'s (a later pull, same ``t``)."""
        return _SeriesPanel(
            self.names + more.names,
            np.vstack([self.window, more.window]),
            np.vstack([self.reference, more.reference]),
        )


class _EventPanel:
    """One event dataset's per-device, per-type counts at one time ``t``.

    Every pulled device has a row (an uncovered device counts zeros);
    columns follow the schema's sorted event types.
    """

    __slots__ = ("names", "rows", "columns", "counts")

    def __init__(
        self, names: list[str], types: list[str], counts: np.ndarray
    ) -> None:
        self.names = names
        self.rows = {name: row for row, name in enumerate(names)}
        self.columns = {event_type: col for col, event_type in enumerate(types)}
        self.counts = counts

    def extended(self, more: "_EventPanel") -> "_EventPanel":
        """These rows followed by ``more``'s (a later pull, same ``t``)."""
        return _EventPanel(
            self.names + more.names,
            list(self.columns),
            np.vstack([self.counts, more.counts]),
        )


class IncidentPanel:
    """Every active dataset's pull for one incident, addressed by rows.

    ``rows(locator, kind)`` lists the panel rows of the devices that
    represent the incident's components of ``kind`` in that dataset, in
    component → device order with duplicates kept — the order the
    features pool in and CPD+ counts in.
    """

    def __init__(
        self,
        datasets: dict[str, _SeriesPanel | _EventPanel],
        devices: dict[tuple[ComponentKind, str], list[Component]],
    ) -> None:
        self.datasets = datasets
        self._devices = devices

    def rows(self, locator: str, kind: ComponentKind) -> np.ndarray:
        index = self.datasets[locator].rows
        return np.array(
            [
                index[device.name]
                for device in self._devices[(kind, locator)]
                if device.name in index
            ],
            dtype=np.intp,
        )


class FeatureBuilder:
    """Builds feature vectors (and raw pulls for CPD+) per incident."""

    def __init__(
        self,
        config: ScoutConfig,
        topology: Topology,
        store: MonitoringStore,
        incremental: bool = False,
        approx_quantiles: bool = False,
    ) -> None:
        self.config = config
        self.topology = topology
        self.store = store
        self.schema = FeatureSchema(config, store)
        # Three cache lifetimes, all initialized here so clear_cache()
        # and pickling (parallel dataset builds ship builders to
        # workers) always see every memo:
        #
        # * per-incident — ``_panel_memo`` holds each dataset's one pull
        #   per incident (see :meth:`incident_panel`), keyed on
        #   ``(locator, t)``; the features and CPD+ read the same
        #   entry.  ``_series_memo`` / ``_norm_memo`` are the
        #   incremental engine's per-device (dataset, device, window)
        #   memos.  With no TTL configured (the default), callers reset
        #   all three between incidents via clear_cache() /
        #   begin_incident(); a retry inside one incident re-issues only
        #   the pulls that have no entry yet;
        # * TTL-window — when ``cache_ttl`` and ``clock`` are set (the
        #   incident manager threads its own injectable clock in at
        #   registration), the same memos survive *across* incidents:
        #   keys already carry the exact query window, so a burst of
        #   correlated incidents at the same timestamps shares pulls
        #   instead of re-issuing them N times.  Entries are stamped
        #   with their insertion time and evicted once older than
        #   ``cache_ttl`` (on the injectable clock, so fake-clock tests
        #   are exact);
        # * topology-lifetime — ``_observables_memo`` maps a container
        #   component to its observable leaf devices, which depends only
        #   on the (immutable) topology and config, so clear_cache()
        #   deliberately keeps it.
        self._panel_memo: dict = {}
        self._series_memo: dict = {}
        self._norm_memo: dict = {}
        self._observables_memo: dict = {}
        # TTL-window cache state: ``cache_ttl=None`` keeps the seed
        # behavior (per-incident memos).  ``_epoch`` counts live
        # predictions so a memo hit can tell "same incident re-query"
        # from a genuine cross-incident hit.
        self.cache_ttl: float | None = None
        self.clock = None
        self._epoch = 0
        self._panel_stamps: dict = {}
        self._series_stamps: dict = {}
        self._norm_stamps: dict = {}
        # (kind, locator) pairs the schema reads, in schema order: the
        # order datasets are pulled in, hence the FaultyStore ordinals.
        self._panel_plan: list[tuple[ComponentKind, str]] = list(
            dict.fromkeys(
                [
                    (group.kind, locator)
                    for group in self.schema.ts_groups
                    for locator in group.locators
                ]
                + [
                    (feature.kind, feature.locator)
                    for feature in self.schema.event_features
                ]
            )
        )
        # Observability sink (None = un-instrumented): counts store
        # queries vs. memo hits.  Threaded in by the incident manager
        # at Scout registration or by an instrumented framework; the
        # obs objects pickle cleanly, so parallel dataset builds that
        # ship builders to workers keep working.
        self._obs = None
        self._bound_counters: dict = {}
        # Incremental feature engine (default off; the default path is
        # the per-incident panel above).  All engine caches are
        # *content-addressed*:
        # keys encode the signal identity, the sampling-grid window,
        # and the store's effects generation, so entries can never go
        # stale and survive across incidents without TTL bookkeeping.
        #
        # * _block_cache — (locator, device, window grid, reference
        #   grid, effects gen) → Block (normalized window + per-block
        #   aggregates).  A storm of incidents over an unchanged grid
        #   reuses blocks with zero store traffic.
        # * _group_aggs / _group_state — per ts-group WindowAggregator
        #   and its last (pool composition, stats) pair: an unchanged
        #   pool short-circuits to the cached eleven statistics.
        # * _count_memo — content-addressed per-type event counts
        #   (bins + effects gen; windows of pairs carrying burst
        #   effects key on the exact float window, since burst counts
        #   depend on it).
        # * _group_stats_memo / _event_totals_memo — pooled results
        #   one level up: the eleven statistics keyed on a group's full
        #   block-key tuple, and a dataset's per-type totals keyed on
        #   (components, bin grid, dataset effects token).  A re-served
        #   incident short-circuits to a dict hit instead of re-pooling
        #   every block and re-scanning every device.
        self.incremental = incremental
        self.approx_quantiles = approx_quantiles
        self._block_cache: dict = {}
        self._group_aggs: dict = {}
        self._group_state: dict = {}
        self._count_memo: dict = {}
        self._group_stats_memo: dict = {}
        self._event_totals_memo: dict = {}
        # Engine entries are stamped with the inserting epoch (kept
        # beside the memos, not inside the stored values) so a hit can
        # tell same-incident re-queries from genuine cross-incident
        # reuse — the engine caches deliberately outlive incidents, and
        # their hits must feed the cross-hit counter just like the
        # TTL-window memos' do.
        self._engine_stamps: dict = {}
        self._engine_cap = 65536

    def __getstate__(self) -> dict:
        # Memos and engine caches are working state: drop them when
        # builders ship to dataset-build worker processes (they rebuild
        # lazily), so a worker never starts from the last incident's
        # pulls.
        state = self.__dict__.copy()
        for name in (
            "_panel_memo", "_series_memo", "_norm_memo",
            "_panel_stamps", "_series_stamps", "_norm_stamps",
            "_block_cache", "_group_aggs", "_group_state", "_count_memo",
            "_group_stats_memo", "_event_totals_memo", "_engine_stamps",
            "_bound_counters",
        ):
            state[name] = {}
        return state

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value
        self._bound_counters = {}  # handles belong to the old registry

    _COUNTER_HELP = {
        "monitoring_queries_total": "Monitoring-store pulls by query kind.",
        "monitoring_cache_hits_total": "Feature-builder memo hits by query kind.",
        "monitoring_cache_cross_hits_total": (
            "Memo hits served from an earlier incident's work "
            "(TTL-window and incremental-engine caches)."
        ),
        "window_advance_samples": (
            "Samples entering/leaving incremental group windows on advance."
        ),
    }

    def _count(self, metric: str, kind: str) -> None:
        """One counter tick on the hot query path.

        A dataset build issues tens of thousands of pulls, so the
        (metric, kind) handle is bound once — validation and registry
        lookup happen on first use, later ticks are just an increment.
        """
        if self._obs is None:
            return
        bound = self._bound_counters.get((metric, kind))
        if bound is None:
            bound = self._obs.metrics.counter(
                metric, self._COUNTER_HELP[metric], labels=("kind",)
            ).bind(kind=kind)
            self._bound_counters[(metric, kind)] = bound
        bound.inc()

    def clear_cache(self) -> None:
        """Reset the per-incident query memos (call between incidents).

        The topology-lifetime ``_observables_memo`` survives: container
        membership cannot change within a builder's lifetime.
        """
        self._panel_memo.clear()
        self._series_memo.clear()
        self._norm_memo.clear()
        self._panel_stamps.clear()
        self._series_stamps.clear()
        self._norm_stamps.clear()

    def clear_engine_cache(self) -> None:
        """Reset the incremental engine's content-addressed state.

        Never required for correctness — engine keys encode everything
        an entry depends on — but benchmarks reset it for cold-start
        fairness and long-lived servers get a bounded-memory backstop
        via the ``_engine_cap`` trim in :meth:`begin_incident`.
        """
        self._block_cache.clear()
        self._group_aggs.clear()
        self._group_state.clear()
        self._count_memo.clear()
        self._group_stats_memo.clear()
        self._event_totals_memo.clear()
        self._engine_stamps.clear()

    # -- cache lifecycle ----------------------------------------------------

    @property
    def ttl_enabled(self) -> bool:
        """Is the cross-incident TTL-window cache active?"""
        return self.cache_ttl is not None and self.clock is not None

    def begin_incident(self) -> None:
        """Open one live prediction's cache scope.

        Without a TTL this is exactly the seed behavior — the
        per-incident memos reset.  With ``cache_ttl`` and ``clock`` set,
        the memos survive across incidents: only entries older than the
        TTL are evicted, and the epoch bump lets hits on surviving
        entries be counted as cross-incident.
        """
        engine_entries = (
            len(self._block_cache)
            + len(self._count_memo)
            + len(self._group_stats_memo)
            + len(self._event_totals_memo)
        )
        if engine_entries > self._engine_cap:
            self.clear_engine_cache()
        # The epoch advances for every live prediction regardless of
        # TTL mode: the incremental engine's content-addressed caches
        # survive incidents even without a TTL, and their hits need the
        # epoch to classify cross-incident reuse.
        self._epoch += 1
        if not self.ttl_enabled:
            self.clear_cache()
            return
        self.evict_expired()

    def evict_expired(self) -> None:
        """Drop TTL-window entries whose age reached ``cache_ttl``."""
        if not self.ttl_enabled:
            return
        cutoff = self.clock() - self.cache_ttl
        for memo, stamps in (
            (self._panel_memo, self._panel_stamps),
            (self._series_memo, self._series_stamps),
            (self._norm_memo, self._norm_stamps),
        ):
            expired = [key for key, (at, _) in stamps.items() if at <= cutoff]
            for key in expired:
                del stamps[key]
                memo.pop(key, None)

    def _note_hit(self, kind: str, stamps: dict, key) -> None:
        """Count a memo hit; cross-incident hits get their own counter."""
        self._count("monitoring_cache_hits_total", kind)
        if self.cache_ttl is None:
            return
        stamp = stamps.get(key)
        if stamp is not None and stamp[1] != self._epoch:
            self._count("monitoring_cache_cross_hits_total", kind)

    def _note_engine_hit(self, kind: str, key) -> None:
        """Count an engine-cache hit, classifying cross-incident reuse.

        The engine memos are content-addressed and live across
        incidents by design, so — unlike :meth:`_note_hit` — the
        cross-hit classification does not depend on a TTL being
        configured: an entry inserted during an earlier prediction
        epoch that satisfies this one *is* the cross-incident cache
        working, and the serve bench's ``serve_cache_cross_hits``
        read-out regressed to zero exactly because these hits went
        uncounted when the batch path switched to the engine.
        """
        self._count("monitoring_cache_hits_total", kind)
        stamp = self._engine_stamps.get(key)
        if stamp is not None and stamp != self._epoch:
            self._count("monitoring_cache_cross_hits_total", kind)

    def _stamp_engine(self, key) -> None:
        """Record which prediction epoch inserted an engine entry."""
        self._engine_stamps[key] = self._epoch

    def series(self, locator: str, device: Component, t0: float, t1: float):
        """Memoized MonitoringStore.query_series."""
        key = (locator, device.name, t0, t1)
        if key not in self._series_memo:
            self._count("monitoring_queries_total", "series")
            self._series_memo[key] = self.store.query_series(locator, device, t0, t1)
            if self.ttl_enabled:
                self._series_stamps[key] = (self.clock(), self._epoch)
        else:
            self._note_hit("series", self._series_stamps, key)
        return self._series_memo[key]

    def prefetch_series(
        self, locator: str, devices: list[Component], t0: float, t1: float
    ) -> None:
        """Warm the series memo for many devices with one batched query.

        ``query_series_batch`` is bit-identical to per-device queries,
        so later :meth:`series` calls see exactly the values they would
        have computed — just without per-device generator overhead.
        """
        missing: list[Component] = []
        seen: set[str] = set()
        for device in devices:
            if device.name in seen:
                continue
            seen.add(device.name)
            if (locator, device.name, t0, t1) not in self._series_memo:
                missing.append(device)
        if len(missing) < 2:
            return
        self._count("monitoring_queries_total", "series_batch")
        batch = self.store.query_series_batch(locator, missing, t0, t1)
        stamp = (self.clock(), self._epoch) if self.ttl_enabled else None
        for device, series in zip(missing, batch):
            key = (locator, device.name, t0, t1)
            self._series_memo[key] = series
            if stamp is not None:
                self._series_stamps[key] = stamp

    # -- component resolution ----------------------------------------------

    def _observables(
        self, component: Component, dataset_kinds: frozenset[ComponentKind]
    ) -> list[Component]:
        """The concrete devices whose data represents ``component``."""
        if component.kind in dataset_kinds:
            return [component]
        if component.kind not in _CONTAINER_KINDS:
            return []
        cache = self._observables_memo
        key = (component.name, dataset_kinds)
        if key in cache:
            return cache[key]
        members: list[Component] = []
        for leaf in sorted(dataset_kinds & set(_LEAF_KINDS)):
            members.extend(self.topology.members(component.name, leaf))
        cap = self.config.max_members_per_container
        if len(members) > cap:
            # Deterministic, evenly-spaced subsample keeps DC-wide
            # feature pulls tractable.
            idx = np.linspace(0, len(members) - 1, cap).astype(int)
            members = [members[i] for i in idx]
        cache[key] = members
        return members

    # -- the incident panel ---------------------------------------------------

    def incident_panel(
        self, extracted: ExtractedComponents, t: float
    ) -> IncidentPanel:
        """Every active dataset's monitoring data for one incident.

        Each dataset the schema reads is pulled once, for the ordered
        union of the devices that represent the incident's components
        in it (extracted leaves plus cluster/DC members): a time-series
        dataset through one ``query_series_batch`` over the reference
        and look-back windows together, an event dataset through one
        ``query_event_type_counts_batch`` over the look-back window.
        Datasets are pulled in schema order; each pull is memoized on
        its own, so a retry re-issues only the pulls that failed.
        Inactive datasets are absent from the panel.
        """
        by_kind: dict[ComponentKind, list[Component]] = {}
        devices: dict[tuple[ComponentKind, str], list[Component]] = {}
        union: dict[str, dict[str, Component]] = {}
        for kind, locator in self._panel_plan:
            if kind not in by_kind:
                by_kind[kind] = extracted.of_kind(kind)
            components = by_kind[kind]
            if not components or not self.store.is_active(locator):
                continue
            dataset_kinds = self.store.schema(locator).component_kinds
            expanded = [
                device
                for component in components
                for device in self._observables(component, dataset_kinds)
            ]
            devices[(kind, locator)] = expanded
            members = union.setdefault(locator, {})
            for device in expanded:
                members.setdefault(device.name, device)
        datasets = {
            locator: self._panel(locator, list(members.values()), t)
            for locator, members in union.items()
        }
        return IncidentPanel(datasets, devices)

    def _panel(
        self, locator: str, devices: list[Component], t: float
    ) -> _SeriesPanel | _EventPanel:
        """One dataset's memoized rows for ``devices`` at time ``t``.

        The memo entry for ``(locator, t)`` holds every device pulled
        at that time.  Devices it lacks are pulled together and
        appended; a call that needs no pull is a memo hit.  Under a TTL
        an entry keeps the time of its first pull (so no row outlives
        the TTL) and the epoch of its latest pull.
        """
        schema = self.store.schema(locator)
        series = schema.kind is DataKind.TIME_SERIES
        if not devices:  # nothing observable: no pull, an empty panel
            if series:
                return _SeriesPanel([], np.empty((0, 0)), np.empty((0, 0)))
            types = sorted(schema.events.rates)
            return _EventPanel([], types, np.zeros((0, len(types)), np.int64))
        kind = "series_batch" if series else "event_counts_batch"
        key = (locator, t)
        panel = self._panel_memo.get(key)
        missing = (
            devices
            if panel is None
            else [device for device in devices if device.name not in panel.rows]
        )
        if not missing:
            self._note_hit(kind, self._panel_stamps, key)
            return panel
        self._count("monitoring_queries_total", kind)
        if series:
            pulled = self._pull_series_panel(locator, missing, t)
        else:
            pulled = self._pull_event_panel(locator, missing, t)
        panel = pulled if panel is None else panel.extended(pulled)
        self._panel_memo[key] = panel
        if self.ttl_enabled:
            first = self._panel_stamps.get(key, (self.clock(), None))[0]
            self._panel_stamps[key] = (first, self._epoch)
        return panel

    def _pull_series_panel(
        self, locator: str, devices: list[Component], t: float
    ) -> _SeriesPanel:
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        start = t - T - ref_span
        pulled = self.store.query_series_batch(locator, devices, start, t)
        present = [
            (device.name, series.values)
            for device, series in zip(devices, pulled)
            if series is not None
        ]
        # The reference window [start, t - T] and the look-back window
        # [t - T, t] lie on the sampling grid of the whole span, which
        # starts where the reference does, so both are column ranges of
        # one matrix (sharing a column when t - T falls on the grid).
        # Indices use the store's own arithmetic.
        interval = self.store.schema(locator).baseline.interval
        r0, r1 = self._grid(interval, start, t - T)
        w0, w1 = self._grid(interval, t - T, t)
        span = (
            np.vstack([values for _, values in present])
            if present
            else np.empty((0, max(0, w1 - r0 + 1)))
        )
        window = span[:, w0 - r0 : w0 - r0 + max(0, w1 - w0 + 1)]
        reference = span[:, : max(0, r1 - r0 + 1)]
        return _SeriesPanel(
            [name for name, _ in present],
            np.ascontiguousarray(window),
            np.ascontiguousarray(reference),
        )

    def _pull_event_panel(
        self, locator: str, devices: list[Component], t: float
    ) -> _EventPanel:
        T = self.config.lookback
        types = sorted(self.store.schema(locator).events.rates)
        pulled = self.store.query_event_type_counts_batch(
            locator, devices, t - T, t
        )
        counts = np.zeros((len(devices), len(types)), dtype=np.int64)
        for row, per_type in enumerate(pulled):
            if per_type is not None:
                counts[row] = [per_type.get(event_type, 0) for event_type in types]
        return _EventPanel([device.name for device in devices], types, counts)

    # -- signal pulls -----------------------------------------------------------

    def _normalized_window(
        self, locator: str, device: Component, t: float
    ) -> np.ndarray | None:
        """The look-back window z-scored against trailing history."""
        key = (locator, device.name, t)
        if key in self._norm_memo:
            return self._norm_memo[key]
        normalized = self._compute_normalized_window(locator, device, t)
        self._norm_memo[key] = normalized
        if self.ttl_enabled:
            self._norm_stamps[key] = (self.clock(), self._epoch)
        return normalized

    def _compute_normalized_window(
        self, locator: str, device: Component, t: float
    ) -> np.ndarray | None:
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        window = self.series(locator, device, t - T, t)
        if window is None:
            return None
        if len(window) == 0:
            return np.empty(0)
        reference = self.series(locator, device, t - T - ref_span, t - T)
        if reference is None or len(reference) < 2:
            mean, std = window.values.mean(), window.values.std()
        else:
            mean, std = reference.values.mean(), reference.values.std()
        if std == 0.0:
            std = 1.0
        return (window.values - mean) / std

    def _prefetch_normalized(
        self, locator: str, devices: list[Component], t: float
    ) -> None:
        """Warm the normalized-window memo for a batch of devices.

        All devices of one (dataset, window) share the sampling grid, so
        their look-back/reference windows stack into matrices and the
        z-scoring reduces along one axis — per-row results equal the
        scalar :meth:`_compute_normalized_window` bit-for-bit.
        """
        missing: list[Component] = []
        seen: set[str] = set()
        for device in devices:
            if device.name in seen:
                continue
            seen.add(device.name)
            if (locator, device.name, t) not in self._norm_memo:
                missing.append(device)
        if len(missing) < 2:
            return
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        stamp = (self.clock(), self._epoch) if self.ttl_enabled else None

        def memoize(device: Component, value) -> None:
            key = (locator, device.name, t)
            self._norm_memo[key] = value
            if stamp is not None:
                self._norm_stamps[key] = stamp

        usable: list[tuple[Component, np.ndarray]] = []
        for device in missing:
            window = self.series(locator, device, t - T, t)
            if window is None:
                memoize(device, None)
            elif len(window) == 0:
                memoize(device, np.empty(0))
            else:
                usable.append((device, window.values))
        if not usable:
            return
        windows = np.vstack([values for _, values in usable])
        references = [
            self.series(locator, device, t - T - ref_span, t - T)
            for device, _ in usable
        ]
        if references[0] is None or len(references[0]) < 2:
            means = windows.mean(axis=1)
            stds = windows.std(axis=1)
        else:
            ref_matrix = np.vstack([ref.values for ref in references])
            means = ref_matrix.mean(axis=1)
            stds = ref_matrix.std(axis=1)
        stds = np.where(stds == 0.0, 1.0, stds)
        normalized = (windows - means[:, np.newaxis]) / stds[:, np.newaxis]
        for row, (device, _) in enumerate(usable):
            memoize(device, normalized[row])

    # -- incremental engine -------------------------------------------------

    @staticmethod
    def _grid(interval: float, t0: float, t1: float) -> tuple[int, int]:
        """The store's sampling-grid window for ``[t0, t1]``.

        Query values depend only on these indices (and the effects
        generation), which is what makes engine keys content addresses.
        """
        return (
            max(0, int(np.ceil(t0 / interval))),
            int(np.floor(t1 / interval)),
        )

    def _group_stats_incremental(
        self,
        group_index: int,
        group: _TsGroup,
        components: list[Component],
        t: float,
    ) -> np.ndarray | None:
        """The eleven statistics for one ts-group, O(delta) per advance.

        Byte-identical to the default path's pooled statistics:
        blocks pool in the same locator → component → device order, and
        the aggregator computes the pooled statistics exactly (see
        :mod:`.window_agg`).  Returns None when no data source is up
        (the NaN case).
        """
        keyed: list[tuple[object, Block]] = []
        any_active = False
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        for locator in group.locators:
            if not self.store.is_active(locator):
                continue
            any_active = True
            schema = self.store.schema(locator)
            dataset_kinds = schema.component_kinds
            window_grid = self._grid(schema.baseline.interval, t - T, t)
            ref_grid = self._grid(
                schema.baseline.interval, t - T - ref_span, t - T
            )
            resolved: list[tuple[Component, tuple]] = []
            missing: list[Component] = []
            for component in components:
                for device in self._observables(component, dataset_kinds):
                    generation = self.store.effects_generation(
                        locator, device.name
                    )
                    key = (
                        locator, device.name, window_grid, ref_grid, generation,
                    )
                    resolved.append((device, key))
                    if key not in self._block_cache:
                        missing.append(device)
            if missing:
                # Same warm-up as the full path, but only for devices
                # whose block is genuinely new content.
                self.prefetch_series(locator, missing, t - T, t)
                self.prefetch_series(locator, missing, t - T - ref_span, t - T)
                self._prefetch_normalized(locator, missing, t)
            for device, key in resolved:
                block = self._block_cache.get(key)
                if block is None:
                    normalized = self._normalized_window(locator, device, t)
                    if normalized is None:
                        normalized = np.empty(0)
                    block = Block(normalized)
                    self._block_cache[key] = block
                keyed.append((key, block))
        if not any_active:
            return None
        state = self._group_state.get(group_index)
        state_key = tuple(key for key, _ in keyed)
        if state is not None and state[0] == state_key:
            self._note_engine_hit("group_window", ("group_stats", state_key))
            return state[1]
        # Content-addressed pooled result: a re-served incident (warm
        # steady state) resolves here without touching the aggregator.
        # Every input the statistics depend on is inside the block keys.
        memo = self._group_stats_memo.get(state_key)
        if memo is not None:
            self._note_engine_hit("group_window", ("group_stats", state_key))
            self._group_state[group_index] = (state_key, memo)
            return memo
        agg = self._group_aggs.get(group_index)
        if agg is None:
            sketch = BucketQuantiles() if self.approx_quantiles else None
            agg = WindowAggregator(sketch=sketch)
            self._group_aggs[group_index] = agg
        added, dropped = agg.advance(keyed)
        if added:
            self._count_n("window_advance_samples", "added", added)
        if dropped:
            self._count_n("window_advance_samples", "dropped", dropped)
        stats = agg.stats(_PERCENTILES)
        self._group_state[group_index] = (state_key, stats)
        self._group_stats_memo[state_key] = stats
        self._stamp_engine(("group_stats", state_key))
        return stats

    def _count_n(self, metric: str, kind: str, n: int) -> None:
        """Like :meth:`_count` but adds ``n`` at once."""
        if self._obs is None:
            return
        bound = self._bound_counters.get((metric, kind))
        if bound is None:
            bound = self._obs.metrics.counter(
                metric, self._COUNTER_HELP[metric], labels=("kind",)
            ).bind(kind=kind)
            self._bound_counters[(metric, kind)] = bound
        bound.inc(n)

    def event_counts(
        self, locator: str, device: Component, t0: float, t1: float
    ) -> dict[str, int] | None:
        """Content-addressed per-type event counts over ``[t0, t1]``.

        Equals ``store.query_events(...).count_by_type()`` (with explicit zeros for
        quiet schema types) without materializing a single event.
        Windows of pairs carrying effects key on the exact float window
        — burst counts depend on it — every other window keys on the
        bin grid and is shared across incidents.
        """
        key = self._count_key(locator, device, t0, t1)
        if key in self._count_memo:
            self._note_engine_hit("event_counts", ("event_counts", key))
            return self._count_memo[key]
        self._count("monitoring_queries_total", "event_counts")
        counts = self.store.query_event_type_counts(locator, device, t0, t1)
        self._count_memo[key] = counts
        self._stamp_engine(("event_counts", key))
        return counts

    def _count_key(
        self, locator: str, device: Component, t0: float, t1: float
    ) -> tuple:
        """The content address :meth:`event_counts` memoizes under."""
        generation = self.store.effects_generation(locator, device.name)
        key = (locator, device.name, self._grid(_EVENT_BIN, t0, t1), generation)
        if generation[1]:
            key = key + (t0, t1)
        return key

    def prefetch_event_counts(
        self, locator: str, devices: list[Component], t0: float, t1: float
    ) -> None:
        """Warm the count memo for many devices with one batched query.

        ``query_event_type_counts_batch`` is bit-identical per device to
        the scalar query, and with shards enabled it materializes the
        devices' missing event chunks together — one generator grid per
        chunk number instead of one scalar pass per device.
        """
        missing: list[Component] = []
        keys: list[tuple] = []
        seen: set[str] = set()
        for device in devices:
            if device.name in seen:
                continue
            seen.add(device.name)
            key = self._count_key(locator, device, t0, t1)
            if key not in self._count_memo:
                missing.append(device)
                keys.append(key)
        if len(missing) < 2:
            return
        self._count("monitoring_queries_total", "event_counts_batch")
        batch = self.store.query_event_type_counts_batch(
            locator, missing, t0, t1
        )
        for key, counts in zip(keys, batch):
            self._count_memo[key] = counts
            self._stamp_engine(("event_counts", key))

    def _event_totals_incremental(
        self,
        locator: str,
        components: list[Component],
        t: float,
    ) -> dict[str, int] | None:
        """Pooled per-type event counts over all observed devices.

        Several ``_EventFeature`` entries share one (dataset, window)
        device scan, so the pooled totals are computed once and
        content-addressed on (components, bin grid, dataset effects
        token) — a re-served incident is a dict hit.  Windows observed
        while the dataset carries burst effects key on the exact float
        window, matching :meth:`event_counts`.  None when the dataset
        is down.
        """
        if not self.store.is_active(locator):
            return None
        T = self.config.lookback
        t0, t1 = t - T, t
        token = self.store.effects_token(locator)
        key = (
            locator,
            tuple(c.name for c in components),
            self._grid(_EVENT_BIN, t0, t1),
            token,
        )
        if token[1]:
            key = key + (t0, t1)
        totals = self._event_totals_memo.get(key)
        if totals is not None:
            self._note_engine_hit("event_totals", ("event_totals", key))
            return totals
        dataset_kinds = self.store.schema(locator).component_kinds
        devices: list[Component] = []
        for component in components:
            devices.extend(self._observables(component, dataset_kinds))
        self.prefetch_event_counts(locator, devices, t0, t1)
        totals = {}
        for device in devices:
            counts = self.event_counts(locator, device, t0, t1)
            if counts is None:
                continue
            for event_type, n in counts.items():
                totals[event_type] = totals.get(event_type, 0) + n
        self._event_totals_memo[key] = totals
        self._stamp_engine(("event_totals", key))
        return totals

    def _event_count_incremental(
        self,
        feature: _EventFeature,
        components: list[Component],
        t: float,
    ) -> float:
        """Incremental-engine event-count feature (count queries only)."""
        totals = self._event_totals_incremental(
            feature.locator, components, t
        )
        if totals is None:
            return float("nan")
        return float(totals.get(feature.event_type, 0))

    def _features_incremental(
        self, extracted: ExtractedComponents, t: float
    ) -> np.ndarray:
        """Engine-backed :meth:`features`; byte-identical output."""
        vector = np.empty(len(self.schema))
        pos = 0
        for group_index, group in enumerate(self.schema.ts_groups):
            components = extracted.of_kind(group.kind)
            if not components:
                vector[pos : pos + len(STAT_NAMES)] = 0.0
            else:
                stats = self._group_stats_incremental(
                    group_index, group, components, t
                )
                if stats is None:
                    vector[pos : pos + len(STAT_NAMES)] = np.nan
                else:
                    vector[pos : pos + len(STAT_NAMES)] = stats
            pos += len(STAT_NAMES)
        for feature in self.schema.event_features:
            components = extracted.of_kind(feature.kind)
            if not components:
                vector[pos] = 0.0
            else:
                vector[pos] = self._event_count_incremental(
                    feature, components, t
                )
            pos += 1
        for kind in self.config.kinds:
            vector[pos] = float(len(extracted.of_kind(kind)))
            pos += 1
        return vector

    # -- the feature vector ----------------------------------------------------

    def features(
        self, extracted: ExtractedComponents, t: float
    ) -> np.ndarray:
        """The fixed-length feature vector for one incident at time ``t``.

        Each ts-group pools its devices' z-scored windows from the
        incident panel (locator → component → device order) into the
        eleven statistics; each event feature sums its devices' counts.
        With ``incremental`` set the vector comes from the sliding
        window engine instead — byte-identical by construction and by
        the parity suite.
        """
        if self.incremental:
            return self._features_incremental(extracted, t)
        panel = self.incident_panel(extracted, t)
        vector = np.empty(len(self.schema))
        pos = 0
        for group in self.schema.ts_groups:
            block = slice(pos, pos + len(STAT_NAMES))
            pos += len(STAT_NAMES)
            if not extracted.of_kind(group.kind):
                vector[block] = 0.0
                continue
            pooled = [
                panel.datasets[locator].normalized[
                    panel.rows(locator, group.kind)
                ].ravel()
                for locator in group.locators
                if locator in panel.datasets
            ]
            if not pooled:
                vector[block] = np.nan  # every data source is down
            else:
                vector[block] = _stats(np.concatenate(pooled))
        for feature in self.schema.event_features:
            if not extracted.of_kind(feature.kind):
                vector[pos] = 0.0
            elif feature.locator not in panel.datasets:
                vector[pos] = np.nan
            else:
                events = panel.datasets[feature.locator]
                rows = panel.rows(feature.locator, feature.kind)
                column = events.columns[feature.event_type]
                vector[pos] = float(events.counts[rows, column].sum())
            pos += 1
        for kind in self.config.kinds:
            vector[pos] = float(len(extracted.of_kind(kind)))
            pos += 1
        return vector
