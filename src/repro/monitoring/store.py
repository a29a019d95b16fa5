"""The monitoring store: lazy, deterministic, effect-aware queries.

``MonitoringStore`` answers the only question the Scout framework asks
of monitoring infrastructure: *give me this dataset for this component
over the look-back window ``[t - T, t]``*.  Healthy baselines come from
the hash-based generators; failure scenarios overlay
:class:`FailureEffect` distortions.  Datasets can be deactivated to
model deprecated monitoring systems (Figure 9) or a monitoring system
that itself failed during the incident (§6).

Two storage regimes share one query surface:

* **Generated** (the default): every query recomputes its window from
  the hash generators.  Nothing is resident, any timestamp is
  reachable, and simulation-scale history costs no memory.
* **Sharded** (``enable_shards()``): queries are served from columnar
  per-(dataset, component) chunks materialized once from the same
  generators (see :mod:`.shards`).  Byte-identical to the generated
  path — the chunk arrays are produced by the very same elementwise
  expressions — but a repeat pull is an index computation plus an
  array slice instead of a regeneration.  Windows overlapping an
  injected effect fall back to the generated path (effects are
  per-scenario state; chunks only hold the healthy baseline, which is
  also why deactivation/effect changes can never serve stale shard
  data — activity is checked before the shard lookup, and effects
  simply bypass it).
"""

from __future__ import annotations

import threading
from collections import defaultdict

import numpy as np

from ..datacenter.components import Component
from .base import (
    DataKind,
    DatasetSchema,
    EventSeries,
    FailureEffect,
    TimeSeries,
)
from .generators import (
    _poisson_cdf,
    normal_grid,
    poisson_counts,
    poisson_counts_grid,
    series_seed,
    uniform_grid,
    uniform_mixed,
)
from .shards import (
    ShardCache,
    ShardConfig,
    background_event_parts,
    baseline_series_values,
)

__all__ = ["MonitoringStore"]

_DAY = 86400.0
_HOUR = 3600.0
# Event noise is binned at one-minute granularity.
_EVENT_BIN = 60.0


def _assemble_events(
    time_parts: list[np.ndarray], types: list[str]
) -> EventSeries:
    """Merge per-source event times/types into one time-sorted series."""
    times_arr = np.concatenate(time_parts) if time_parts else np.empty(0)
    order = np.argsort(times_arr, kind="stable")
    times_arr = times_arr[order]
    types_tuple = tuple(types[i] for i in order)
    return EventSeries(times_arr, types_tuple)


def _event_parts_from_chunks(
    chunks: list,
    size: int,
    first: int,
    last: int,
    time_parts: list[np.ndarray],
    types: list[str],
) -> None:
    """Append the events of bins ``[first, last]`` from event chunks.

    Parts are emitted type-major then bin-ascending — exactly the
    construction order of the generated path — so the downstream stable
    sort in :func:`_assemble_events` breaks ties identically.  Every
    appended array is a zero-copy view into a chunk.
    """
    if not chunks or not chunks[0].parts:
        return
    for type_index in range(len(chunks[0].parts)):
        event_type = chunks[0].parts[type_index][0]
        for chunk in chunks:
            _, times, cum = chunk.parts[type_index]
            base = chunk.start_bin
            lo = max(first, base) - base
            hi = min(last, base + size - 1) - base
            window = times[cum[lo] : cum[hi + 1]]
            if len(window):
                time_parts.append(window)
                types.extend([event_type] * len(window))


def _event_counts_from_chunks(
    chunks: list, size: int, first: int, last: int
) -> dict[str, int]:
    """Per-type counts of bins ``[first, last]`` from cumulative tables."""
    counts: dict[str, int] = {}
    if not chunks or not chunks[0].parts:
        return counts
    for type_index in range(len(chunks[0].parts)):
        event_type = chunks[0].parts[type_index][0]
        total = 0
        for chunk in chunks:
            _, _, cum = chunk.parts[type_index]
            base = chunk.start_bin
            lo = max(first, base) - base
            hi = min(last, base + size - 1) - base
            total += int(cum[hi + 1] - cum[lo])
        counts[event_type] = total
    return counts


class MonitoringStore:
    """Queryable monitoring plane for the synthetic cloud."""

    def __init__(self, schemas: list[DatasetSchema], seed: int = 0) -> None:
        names = [schema.name for schema in schemas]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dataset names")
        self._schemas = {schema.name: schema for schema in schemas}
        self._seed = seed
        self._inactive: set[str] = set()
        # Effects indexed by (dataset, component), kept sorted by start.
        self._effects: dict[tuple[str, str], list[FailureEffect]] = defaultdict(list)
        self._seed_memo: dict[tuple[str, str], int] = {}
        # Columnar shard state (enable_shards()): the chunk cache, its
        # config (kept separately so pickled stores re-enable shards in
        # worker processes with an empty cache), and a lock serializing
        # materialization — several serving threads may fault in the
        # same chunk at once.
        self._shards: ShardCache | None = None
        self._shard_config: ShardConfig | None = None
        self._shard_lock = threading.Lock()
        # Bumped whenever registry-wide signal identity changes
        # (clear/restore effects, activate/deactivate); combined with
        # the per-pair effect count in effects_generation() so callers
        # can content-address anything derived from a signal.
        self._effects_gen = 0
        # Observability sink (None = un-instrumented), same bound-
        # counter pattern as the feature builder.
        self._obs = None
        self._bound_counters: dict = {}

    def _series_seed(self, dataset: str, component: str) -> int:
        key = (dataset, component)
        seed = self._seed_memo.get(key)
        if seed is None:
            seed = series_seed(self._seed, dataset, component)
            self._seed_memo[key] = seed
        return seed

    # -- observability -------------------------------------------------------

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value
        self._bound_counters = {}  # handles belong to the old registry

    def _count_shard(self, kind: str) -> None:
        if self._obs is None:
            return
        bound = self._bound_counters.get(kind)
        if bound is None:
            bound = self._obs.metrics.counter(
                "shard_materializations_total",
                "Columnar shard chunks materialized, by signal kind.",
                labels=("kind",),
            ).bind(kind=kind)
            self._bound_counters[kind] = bound
        bound.inc()

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Chunk caches are processor-local working state: drop them (a
        # worker re-materializes lazily) along with the lock and any
        # bound counter handles, keep the shard *config* so shard mode
        # survives the trip.
        state = self.__dict__.copy()
        state["_shard_lock"] = None
        state["_shards"] = None
        state["_bound_counters"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._shard_lock = threading.Lock()
        if self._shard_config is not None:
            self._shards = ShardCache(self._shard_config)

    # -- shard lifecycle -----------------------------------------------------

    @property
    def shards_enabled(self) -> bool:
        return self._shards is not None

    @property
    def shard_stats(self):
        """Live :class:`~.shards.ShardStats`, or None when disabled."""
        return self._shards.stats if self._shards is not None else None

    def enable_shards(
        self,
        series_chunk: int = 512,
        event_chunk: int = 512,
        max_chunks: int = 16384,
        memmap_dir: str | None = None,
    ) -> None:
        """Switch to columnar shard-backed queries (byte-identical).

        Idempotent for an identical configuration; a different
        configuration replaces the cache (dropping materialized
        chunks).
        """
        config = ShardConfig(
            series_chunk=series_chunk,
            event_chunk=event_chunk,
            max_chunks=max_chunks,
            memmap_dir=memmap_dir,
        )
        with self._shard_lock:
            if self._shard_config == config and self._shards is not None:
                return
            self._shard_config = config
            self._shards = ShardCache(config)

    def drop_shards(self) -> None:
        """Return to purely generated queries and free chunk memory."""
        with self._shard_lock:
            if self._shards is not None:
                self._shards.clear()
            self._shards = None
            self._shard_config = None

    # -- registry ----------------------------------------------------------

    @property
    def dataset_names(self) -> list[str]:
        return sorted(self._schemas)

    @property
    def active_dataset_names(self) -> list[str]:
        return sorted(set(self._schemas) - self._inactive)

    def schema(self, dataset: str) -> DatasetSchema:
        try:
            return self._schemas[dataset]
        except KeyError:
            raise KeyError(f"unknown dataset: {dataset!r}") from None

    def deactivate(self, dataset: str) -> None:
        """Model a deprecated/failed monitoring system (Fig 9, §6)."""
        self.schema(dataset)
        self._inactive.add(dataset)
        self._effects_gen += 1

    def activate(self, dataset: str) -> None:
        self.schema(dataset)
        self._inactive.discard(dataset)
        self._effects_gen += 1

    def is_active(self, dataset: str) -> bool:
        return dataset not in self._inactive

    def covers(self, dataset: str, component: Component) -> bool:
        return self.schema(dataset).covers(component.kind)

    # -- effects -----------------------------------------------------------

    def inject(self, effect: FailureEffect) -> None:
        """Register a scenario's distortion of one signal."""
        schema = self.schema(effect.dataset)
        if schema.kind is DataKind.TIME_SERIES and effect.mode == "burst":
            raise ValueError(
                f"{effect.dataset} is TIME_SERIES; burst effects apply to events"
            )
        if schema.kind is DataKind.EVENT and effect.mode != "burst":
            raise ValueError(
                f"{effect.dataset} is EVENT; only burst effects apply"
            )
        effects = self._effects[(effect.dataset, effect.component)]
        effects.append(effect)
        effects.sort(key=lambda e: e.start)

    def clear_effects(self) -> None:
        self._effects.clear()
        self._effects_gen += 1

    def snapshot_effects(self) -> dict:
        """Copy the current effect registry (pair with restore_effects)."""
        return {key: list(value) for key, value in self._effects.items()}

    def restore_effects(self, snapshot: dict) -> None:
        """Restore a registry captured by :meth:`snapshot_effects`."""
        self._effects = defaultdict(
            list, {key: list(value) for key, value in snapshot.items()}
        )
        self._effects_gen += 1

    def effects_for(self, dataset: str, component: str) -> list[FailureEffect]:
        return list(self._effects.get((dataset, component), []))

    def effects_generation(self, dataset: str, component: str) -> tuple[int, int]:
        """A token that changes whenever this signal's content could.

        The global counter bumps on registry-wide mutations
        (clear/restore/activate/deactivate); the per-pair effect count
        grows on inject.  Anything derived from the signal — a
        normalized window, an event count — stays valid exactly as long
        as this token is unchanged, which is how the incremental
        feature engine content-addresses its caches.
        """
        return (
            self._effects_gen,
            len(self._effects.get((dataset, component), ())),
        )

    def effects_token(self, dataset: str) -> tuple[int, int]:
        """A token that changes whenever ANY of the dataset's signals could.

        The dataset-wide analogue of :meth:`effects_generation`: the
        global counter plus the dataset's total injected-effect count.
        Anything pooled across the dataset's components — the feature
        engine's per-type event totals — stays valid exactly as long as
        this token is unchanged.  The scan is O(pairs carrying effects),
        which is zero on the healthy serving path.
        """
        total = sum(
            len(effects)
            for (name, _), effects in self._effects.items()
            if name == dataset
        )
        return (self._effects_gen, total)

    def _effects_overlap(
        self, dataset: str, component: str, t_lo: float, t_hi: float
    ) -> bool:
        """Does any injected effect touch ``[t_lo, t_hi]``?"""
        effects = self._effects.get((dataset, component))
        if not effects:
            return False
        for effect in effects:
            if effect.start > t_hi:
                break  # effects are kept sorted by start
            if effect.end >= t_lo:
                return True
        return False

    # -- shard-backed window assembly ---------------------------------------

    def _shard_series_values(
        self, dataset: str, component: str, spec, seed: int, first: int, last: int
    ) -> np.ndarray:
        """Baseline window ``[first, last]`` sliced from series chunks.

        Single-chunk windows (the common case) return a read-only view;
        straddling windows concatenate chunk slices.  Only valid for
        effect-free windows — ``final`` already carries the floor.
        """
        shards = self._shards
        size = shards.config.series_chunk
        k0 = first // size
        k1 = last // size
        with self._shard_lock:
            if k0 == k1:
                chunk = self._series_chunk(dataset, component, spec, seed, k0)
                base = chunk.start_index
                return chunk.final[first - base : last + 1 - base]
            parts = []
            for k in range(k0, k1 + 1):
                chunk = self._series_chunk(dataset, component, spec, seed, k)
                base = chunk.start_index
                lo = max(first, base) - base
                hi = min(last, base + size - 1) - base
                parts.append(chunk.final[lo : hi + 1])
        return np.concatenate(parts)

    def _shard_series_values_batch(
        self,
        dataset: str,
        names: list[str],
        spec,
        seeds: list[int],
        first: int,
        last: int,
    ) -> list[np.ndarray]:
        """Batched :meth:`_shard_series_values` over many components.

        All signals share the window, hence the chunk numbers: missing
        chunks materialize through one broadcast generator call per
        chunk number instead of one scalar call per signal (the cold
        path of a serving burst).  Served slices are byte-identical to
        the scalar path's.
        """
        shards = self._shards
        size = shards.config.series_chunk
        k0 = first // size
        k1 = last // size
        per_k: list[list] = []
        with self._shard_lock:
            for k in range(k0, k1 + 1):
                before = shards.stats.series_materializations
                chunks = shards.series_chunks_batch(
                    [(dataset, name, k) for name in names], spec, seeds
                )
                for _ in range(shards.stats.series_materializations - before):
                    self._count_shard("series")
                per_k.append(chunks)
        out: list[np.ndarray] = []
        for i in range(len(names)):
            if k0 == k1:
                chunk = per_k[0][i]
                base = chunk.start_index
                out.append(chunk.final[first - base : last + 1 - base])
                continue
            parts = []
            for chunks in per_k:
                chunk = chunks[i]
                base = chunk.start_index
                lo = max(first, base) - base
                hi = min(last, base + size - 1) - base
                parts.append(chunk.final[lo : hi + 1])
            out.append(np.concatenate(parts))
        return out

    def _series_chunk(self, dataset, component, spec, seed, k):
        before = self._shards.stats.series_materializations
        chunk = self._shards.series_chunk((dataset, component, k), spec, seed)
        if self._shards.stats.series_materializations != before:
            self._count_shard("series")
        return chunk

    def _event_chunk(self, dataset, component, schema, seed, k):
        before = self._shards.stats.event_materializations
        chunk = self._shards.event_chunk((dataset, component, k), schema, seed)
        if self._shards.stats.event_materializations != before:
            self._count_shard("events")
        return chunk

    def _shard_event_chunks_batch(
        self,
        dataset: str,
        names: list[str],
        schema: DatasetSchema,
        seeds: list[int],
        first: int,
        last: int,
    ) -> list[list]:
        """Event chunks covering bins ``[first, last]``, per component.

        The event twin of :meth:`_shard_series_values_batch`: all
        components share the window, so missing chunks of each chunk
        number materialize through one
        :func:`~repro.monitoring.shards.background_event_parts_batch`
        call instead of one scalar generator pass per component.
        """
        shards = self._shards
        size = shards.config.event_chunk
        k0 = first // size
        k1 = last // size
        per_k: list[list] = []
        with self._shard_lock:
            for k in range(k0, k1 + 1):
                before = shards.stats.event_materializations
                chunks = shards.event_chunks_batch(
                    [(dataset, name, k) for name in names], schema, seeds
                )
                for _ in range(shards.stats.event_materializations - before):
                    self._count_shard("events")
                per_k.append(chunks)
        return [[chunks[i] for chunks in per_k] for i in range(len(names))]

    def _shard_event_parts(
        self,
        dataset: str,
        component: str,
        schema: DatasetSchema,
        seed: int,
        first: int,
        last: int,
        time_parts: list[np.ndarray],
        types: list[str],
    ) -> None:
        """Append background events of bins ``[first, last]`` from chunks."""
        size = self._shards.config.event_chunk
        k0 = first // size
        k1 = last // size
        with self._shard_lock:
            chunks = [
                self._event_chunk(dataset, component, schema, seed, k)
                for k in range(k0, k1 + 1)
            ]
        _event_parts_from_chunks(chunks, size, first, last, time_parts, types)

    # -- queries -----------------------------------------------------------

    def query_series(
        self, dataset: str, component: Component, t0: float, t1: float
    ) -> TimeSeries | None:
        """The dataset's time series for ``component`` over ``[t0, t1]``.

        Returns None when the dataset is inactive or does not cover the
        component's kind — the caller decides whether that means
        "impute" (§6) or "no features for this component type" (§5.2).
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.TIME_SERIES:
            raise ValueError(f"{dataset} is not TIME_SERIES")
        if not self.is_active(dataset) or not schema.covers(component.kind):
            return None
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        spec = schema.baseline
        # The monitoring plane starts at the simulation epoch: clamp
        # windows that reach before t=0.
        first = max(0, int(np.ceil(t0 / spec.interval)))
        last = int(np.floor(t1 / spec.interval))
        if last < first:
            return TimeSeries(np.empty(0), np.empty(0))
        indices = np.arange(first, last + 1, dtype=np.uint64)
        timestamps = indices.astype(float) * spec.interval
        seed = self._series_seed(dataset, component.name)
        if self._shards is not None and not self._effects_overlap(
            dataset, component.name, timestamps[0], timestamps[-1]
        ):
            values = self._shard_series_values(
                dataset, component.name, spec, seed, first, last
            )
            return TimeSeries(timestamps, values)
        values = baseline_series_values(spec, seed, indices, timestamps)
        values = self._apply_series_effects(
            dataset, component.name, timestamps, values
        )
        if spec.floor is not None:
            np.maximum(values, spec.floor, out=values)
        return TimeSeries(timestamps, values)

    def query_series_batch(
        self, dataset: str, components: list[Component], t0: float, t1: float
    ) -> list[TimeSeries | None]:
        """Batched :meth:`query_series` over many components.

        Returns one entry per component, each bit-identical to the
        scalar query.  With shards enabled every entry is a chunk
        slice; otherwise all components share the same window, so the
        bin indices, timestamps, and diurnal baseline are computed once
        and only the per-component hash noise differs — one broadcast
        :func:`normal_grid` call replaces ``len(components)`` scalar
        generator calls, which is where feature pulls spend their time.
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.TIME_SERIES:
            raise ValueError(f"{dataset} is not TIME_SERIES")
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        out: list[TimeSeries | None] = [None] * len(components)
        if not self.is_active(dataset):
            return out
        covered = [
            (i, c) for i, c in enumerate(components) if schema.covers(c.kind)
        ]
        if not covered:
            return out
        spec = schema.baseline
        first = max(0, int(np.ceil(t0 / spec.interval)))
        last = int(np.floor(t1 / spec.interval))
        if last < first:
            for i, _ in covered:
                out[i] = TimeSeries(np.empty(0), np.empty(0))
            return out
        indices = np.arange(first, last + 1, dtype=np.uint64)
        timestamps = indices.astype(float) * spec.interval
        if self._shards is not None:
            t_lo, t_hi = timestamps[0], timestamps[-1]
            sliceable: list[tuple[int, str, int]] = []
            for i, component in covered:
                seed = self._series_seed(dataset, component.name)
                if self._effects_overlap(dataset, component.name, t_lo, t_hi):
                    values = baseline_series_values(
                        spec, seed, indices, timestamps
                    )
                    values = self._apply_series_effects(
                        dataset, component.name, timestamps, values
                    )
                    if spec.floor is not None:
                        np.maximum(values, spec.floor, out=values)
                    out[i] = TimeSeries(timestamps, values)
                else:
                    sliceable.append((i, component.name, seed))
            if sliceable:
                values_list = self._shard_series_values_batch(
                    dataset,
                    [name for _, name, _ in sliceable],
                    spec,
                    [seed for _, _, seed in sliceable],
                    first,
                    last,
                )
                for (i, _, _), values in zip(sliceable, values_list):
                    out[i] = TimeSeries(timestamps, values)
            return out
        base = spec.mean + spec.diurnal_amp * np.sin(
            2.0 * np.pi * timestamps / _DAY
        )
        seeds = np.array(
            [self._series_seed(dataset, c.name) for _, c in covered],
            dtype=np.uint64,
        )
        values = base[np.newaxis, :] + spec.std * normal_grid(seeds, indices)
        for row, (i, component) in enumerate(covered):
            series = self._apply_series_effects(
                dataset, component.name, timestamps, values[row]
            )
            if spec.floor is not None:
                np.maximum(series, spec.floor, out=series)
            out[i] = TimeSeries(timestamps, series)
        return out

    def _apply_series_effects(
        self,
        dataset: str,
        component: str,
        timestamps: np.ndarray,
        values: np.ndarray,
    ) -> np.ndarray:
        effects = self._effects.get((dataset, component))
        if not effects or len(timestamps) == 0:
            return values
        # Scalar window-overlap pre-filter: histories accumulate many
        # effects per (dataset, component) and most lie entirely outside
        # the queried window, so skip them before any array work.
        t_lo = timestamps[0]
        t_hi = timestamps[-1]
        copied = False
        for effect in effects:
            if effect.start > t_hi:
                break  # effects are kept sorted by start
            if effect.end < t_lo:
                continue
            mask = (timestamps >= effect.start) & (timestamps <= effect.end)
            if not copied:
                values = values.copy()
                copied = True
            if effect.mode == "shift":
                values[mask] += effect.magnitude
            elif effect.mode == "scale":
                values[mask] *= effect.magnitude
            elif effect.mode == "spike":
                # Exponential decay with a 10-minute time constant.
                dt = timestamps[mask] - effect.start
                values[mask] += effect.magnitude * np.exp(-dt / 600.0)
        return values

    def query_events(
        self, dataset: str, component: Component, t0: float, t1: float
    ) -> EventSeries | None:
        """The dataset's events for ``component`` over ``[t0, t1]``."""
        schema = self.schema(dataset)
        if schema.kind is not DataKind.EVENT:
            raise ValueError(f"{dataset} is not EVENT")
        if not self.is_active(dataset) or not schema.covers(component.kind):
            return None
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        seed = self._series_seed(dataset, component.name)
        first = max(0, int(np.ceil(t0 / _EVENT_BIN)))
        last = int(np.floor(t1 / _EVENT_BIN))
        time_parts: list[np.ndarray] = []
        types: list[str] = []
        if last >= first:
            if self._shards is not None:
                self._shard_event_parts(
                    dataset, component.name, schema, seed,
                    first, last, time_parts, types,
                )
            else:
                for event_type, times, _ in background_event_parts(
                    schema, seed, first, last
                ):
                    if len(times):
                        time_parts.append(times)
                        types.extend([event_type] * len(times))
        self._append_burst_events(
            dataset, component.name, t0, t1, time_parts, types
        )
        return _assemble_events(time_parts, types)

    def _append_burst_events(
        self,
        dataset: str,
        component: str,
        t0: float,
        t1: float,
        time_parts: list[np.ndarray],
        types: list[str],
    ) -> None:
        """Burst effects add failure events deterministically."""
        for effect in self._effects.get((dataset, component), []):
            if effect.start >= t1:
                break  # effects are kept sorted by start
            lo = max(t0, effect.start)
            hi = min(t1, effect.end)
            if hi <= lo or effect.rate <= 0.0:
                continue
            n_events = max(1, int(round(effect.rate * (hi - lo) / _HOUR)))
            time_parts.append(np.linspace(lo, hi, n_events, endpoint=False))
            types.extend([effect.event_type] * n_events)

    def query_events_batch(
        self, dataset: str, components: list[Component], t0: float, t1: float
    ) -> list[EventSeries | None]:
        """Batched :meth:`query_events` over many components.

        Bit-identical per entry to the scalar query.  With shards
        enabled every entry assembles from chunk views; otherwise the
        Poisson bin counts of every component hash through one
        :func:`uniform_grid` call per event type, and the per-event
        time offsets of all components concatenate into one
        :func:`uniform_mixed` call — the per-component work that
        remains is array slicing.
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.EVENT:
            raise ValueError(f"{dataset} is not EVENT")
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        out: list[EventSeries | None] = [None] * len(components)
        if not self.is_active(dataset):
            return out
        covered = [
            (i, c) for i, c in enumerate(components) if schema.covers(c.kind)
        ]
        if not covered:
            return out
        first = max(0, int(np.ceil(t0 / _EVENT_BIN)))
        last = int(np.floor(t1 / _EVENT_BIN))
        time_parts: list[list[np.ndarray]] = [[] for _ in covered]
        types: list[list[str]] = [[] for _ in covered]
        if last >= first and self._shards is not None:
            names = [c.name for _, c in covered]
            seeds = [self._series_seed(dataset, name) for name in names]
            per_name = self._shard_event_chunks_batch(
                dataset, names, schema, seeds, first, last
            )
            size = self._shards.config.event_chunk
            for row, chunks in enumerate(per_name):
                _event_parts_from_chunks(
                    chunks, size, first, last, time_parts[row], types[row]
                )
        elif last >= first:
            indices = np.arange(first, last + 1, dtype=np.uint64)
            seeds = np.array(
                [self._series_seed(dataset, c.name) for _, c in covered],
                dtype=np.uint64,
            )
            for stream, (event_type, hourly_rate) in enumerate(
                sorted(schema.events.rates.items())
            ):
                lam = hourly_rate * _EVENT_BIN / _HOUR
                if lam == 0.0:
                    continue
                u = uniform_grid(seeds, indices, stream=stream + 1)
                counts = np.searchsorted(_poisson_cdf(lam), u)
                rows = np.flatnonzero(counts.any(axis=1))
                if rows.size == 0:
                    continue
                key_parts: list[np.ndarray] = []
                seed_parts: list[np.ndarray] = []
                bin_parts: list[np.ndarray] = []
                for row in rows:
                    nonzero = counts[row] > 0
                    bins = indices[nonzero]
                    per_bin = counts[row][nonzero]
                    total = int(per_bin.sum())
                    # Event j of a bin draws its offset at hash index
                    # ``bin + j``, exactly as the scalar query does.
                    rep_bins = np.repeat(bins, per_bin)
                    ends = np.cumsum(per_bin)
                    within = (
                        np.arange(total, dtype=np.uint64)
                        - np.repeat(ends - per_bin, per_bin).astype(np.uint64)
                    )
                    key_parts.append(rep_bins + within)
                    seed_parts.append(
                        np.full(total, seeds[row], dtype=np.uint64)
                    )
                    bin_parts.append(rep_bins)
                offsets = uniform_mixed(
                    np.concatenate(seed_parts),
                    np.concatenate(key_parts),
                    stream=1000 + stream,
                )
                pos = 0
                for row, rep_bins in zip(rows, bin_parts):
                    chunk = offsets[pos : pos + len(rep_bins)]
                    pos += len(rep_bins)
                    time_parts[row].append(
                        rep_bins.astype(float) * _EVENT_BIN + chunk * _EVENT_BIN
                    )
                    types[row].extend([event_type] * len(rep_bins))
        for row, (i, component) in enumerate(covered):
            self._append_burst_events(
                dataset, component.name, t0, t1, time_parts[row], types[row]
            )
            out[i] = _assemble_events(time_parts[row], types[row])
        return out

    # -- count queries -------------------------------------------------------

    def query_event_type_counts(
        self, dataset: str, component: Component, t0: float, t1: float
    ) -> dict[str, int] | None:
        """Per-type event counts over ``[t0, t1]``, without materializing events.

        Equals ``query_events(...).count_by_type()`` for every type with
        a nonzero count (schema types with zero occurrences are listed
        with count 0 here and omitted there).  Background counts come
        from the Poisson bins directly — via the per-chunk cumulative
        tables when shards are enabled — and burst effects contribute
        their exact deterministic event count, so no per-event offset
        hashing happens at all.  This is what the incremental feature
        engine and CPD+ consume: both only ever look at counts.
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.EVENT:
            raise ValueError(f"{dataset} is not EVENT")
        if not self.is_active(dataset) or not schema.covers(component.kind):
            return None
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        seed = self._series_seed(dataset, component.name)
        first = max(0, int(np.ceil(t0 / _EVENT_BIN)))
        last = int(np.floor(t1 / _EVENT_BIN))
        counts: dict[str, int] = {}
        if last >= first:
            if self._shards is not None:
                size = self._shards.config.event_chunk
                with self._shard_lock:
                    chunks = [
                        self._event_chunk(dataset, component.name, schema, seed, k)
                        for k in range(first // size, last // size + 1)
                    ]
                counts = _event_counts_from_chunks(chunks, size, first, last)
            else:
                indices = np.arange(first, last + 1, dtype=np.uint64)
                for stream, (event_type, hourly_rate) in enumerate(
                    sorted(schema.events.rates.items())
                ):
                    lam = hourly_rate * _EVENT_BIN / _HOUR
                    counts[event_type] = int(
                        poisson_counts(seed, indices, lam, stream=stream + 1).sum()
                    )
        self._add_burst_counts(dataset, component.name, t0, t1, counts)
        return counts

    def _add_burst_counts(
        self,
        dataset: str,
        component: str,
        t0: float,
        t1: float,
        counts: dict[str, int],
    ) -> None:
        """Burst effects: same arithmetic as _append_burst_events, minus
        the linspace — only the count matters here."""
        for effect in self._effects.get((dataset, component), []):
            if effect.start >= t1:
                break  # effects are kept sorted by start
            lo = max(t0, effect.start)
            hi = min(t1, effect.end)
            if hi <= lo or effect.rate <= 0.0:
                continue
            n_events = max(1, int(round(effect.rate * (hi - lo) / _HOUR)))
            counts[effect.event_type] = counts.get(effect.event_type, 0) + n_events

    def query_event_type_counts_batch(
        self, dataset: str, components: list[Component], t0: float, t1: float
    ) -> list[dict[str, int] | None]:
        """Batched :meth:`query_event_type_counts` (one entry per component).

        Each entry is bit-identical to the scalar query's answer.  With
        shards enabled the covered components' chunks materialize
        together (one generator grid per missing chunk number);
        otherwise each event type's Poisson bin counts for every
        component come from one :func:`poisson_counts_grid` pass.
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.EVENT:
            raise ValueError(f"{dataset} is not EVENT")
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        out: list[dict[str, int] | None] = [None] * len(components)
        if not self.is_active(dataset):
            return out
        covered = [
            (i, c) for i, c in enumerate(components) if schema.covers(c.kind)
        ]
        if not covered:
            return out
        first = max(0, int(np.ceil(t0 / _EVENT_BIN)))
        last = int(np.floor(t1 / _EVENT_BIN))
        names = [c.name for _, c in covered]
        seeds = [self._series_seed(dataset, name) for name in names]
        per_row: list[dict[str, int]] = [{} for _ in covered]
        if last >= first and self._shards is not None:
            per_name = self._shard_event_chunks_batch(
                dataset, names, schema, seeds, first, last
            )
            size = self._shards.config.event_chunk
            per_row = [
                _event_counts_from_chunks(chunks, size, first, last)
                for chunks in per_name
            ]
        elif last >= first:
            indices = np.arange(first, last + 1, dtype=np.uint64)
            seed_array = np.array(seeds, dtype=np.uint64)
            for stream, (event_type, hourly_rate) in enumerate(
                sorted(schema.events.rates.items())
            ):
                lam = hourly_rate * _EVENT_BIN / _HOUR
                totals = poisson_counts_grid(
                    seed_array, indices, lam, stream=stream + 1
                ).sum(axis=1)
                for counts, total in zip(per_row, totals):
                    counts[event_type] = int(total)
        for (i, component), counts in zip(covered, per_row):
            self._add_burst_counts(dataset, component.name, t0, t1, counts)
            out[i] = counts
        return out

    # -- convenience -------------------------------------------------------

    def datasets_covering(self, component: Component) -> list[DatasetSchema]:
        """Active schemas that monitor this component's kind."""
        return [
            schema
            for name, schema in sorted(self._schemas.items())
            if name not in self._inactive and schema.covers(component.kind)
        ]
