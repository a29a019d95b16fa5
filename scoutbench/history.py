"""Benchmark inputs: simulated history, trained Scouts, storms.

The simulation is the benchmark's input generator, not a measured
layer.  The program under test receives only what it generates: the
incidents and the monitoring store.  Set-up (:func:`setup_manager`) is
what a team pays before its Scouts can serve: featurizing the training
history, training every Scout, and registering it with an
:class:`~repro.serving.IncidentManager`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.config import phynet_config, team_scout_configs
from repro.core import ScoutFramework, TrainingOptions
from repro.incidents import IncidentStore
from repro.serving import IncidentManager
from repro.simulation import CloudSimulation, SimulationConfig

__all__ = [
    "SIM_DAYS",
    "SIM_INCIDENTS",
    "TRAIN_INCIDENTS",
    "FOREST_TREES",
    "SETUP_REPEATS",
    "History",
    "Setup",
    "nproc",
    "make_history",
    "scout_configs",
    "setup_manager",
    "make_storms",
    "poisson_schedule",
    "replay_record",
    "replay_digest",
]

# One simulated history: its earliest TRAIN_INCIDENTS train the
# Scouts, the rest arrive later and are unseen by every Scout.
SIM_DAYS = 120.0
SIM_INCIDENTS = 1000
TRAIN_INCIDENTS = 100
FOREST_TREES = 20
# Set-up runs this many times per benchmark run; setup_s is the median.
SETUP_REPEATS = 3


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def scout_configs():
    """PhyNet plus the four starter Scouts of ``config/teams.py``."""
    return [phynet_config(), *team_scout_configs().values()]


@dataclass
class History:
    """One generated simulation, split by time into train and unseen."""

    sim: CloudSimulation
    train: IncidentStore
    unseen: list

    @property
    def truth(self) -> dict[int, str]:
        return {i.incident_id: i.responsible_team for i in self.unseen}


def make_history(
    seed: int, n_incidents: int = SIM_INCIDENTS, n_train: int = TRAIN_INCIDENTS
) -> History:
    """Generate a history and split it in ``created_at`` order."""
    sim = CloudSimulation(SimulationConfig(seed=seed, duration_days=SIM_DAYS))
    ordered = sorted(
        sim.generate(n_incidents), key=lambda i: (i.created_at, i.incident_id)
    )
    return History(sim, IncidentStore(ordered[:n_train]), ordered[n_train:])


@dataclass
class Setup:
    """A manager serving freshly trained Scouts, and what it cost."""

    history: History
    manager: IncidentManager
    scouts: list
    seconds: float
    dataset_seconds: float
    train_seconds: float


def setup_manager(history: History, obs=None) -> Setup:
    """Featurize the training history, train every Scout, register it.

    ``obs=None`` builds the manager with its default constructor; the
    traced run passes an :class:`~repro.obs.Observability` sized to
    hold every span of the run.
    """
    sim = history.sim
    started = time.perf_counter()
    dataset_seconds = train_seconds = 0.0
    scouts = []
    for config in scout_configs():
        framework = ScoutFramework(
            config,
            sim.topology,
            sim.store,
            TrainingOptions(n_estimators=FOREST_TREES, cv_folds=2),
        )
        t0 = time.perf_counter()
        data = framework.dataset(history.train).usable()
        t1 = time.perf_counter()
        scouts.append(framework.train(data))
        t2 = time.perf_counter()
        dataset_seconds += t1 - t0
        train_seconds += t2 - t1
    if obs is None:
        manager = IncidentManager(sim.registry)
    else:
        manager = IncidentManager(sim.registry, obs=obs)
    for scout in scouts:
        manager.register(scout)
    return Setup(
        history,
        manager,
        scouts,
        time.perf_counter() - started,
        dataset_seconds,
        train_seconds,
    )


def make_storms(
    unseen, n_storms: int, faults: int, reports: int, first_id: int
) -> list[list]:
    """Outage storms built from consecutive unseen incidents.

    Each storm takes the next ``faults`` distinct unseen incidents and
    reports each of them ``reports`` times at the fault's own timestamp
    with fresh ids, interleaved round-robin (the arrival order of a
    real burst).
    """
    storms: list[list] = []
    next_id = first_id
    for s in range(n_storms):
        members = unseen[s * faults:(s + 1) * faults]
        if len(members) < faults:
            raise ValueError("not enough unseen incidents for the storms")
        storm = []
        for _ in range(reports):
            for incident in members:
                storm.append(replace(incident, incident_id=next_id))
                next_id += 1
        storms.append(storm)
    return storms


def poisson_schedule(n: int, rate: float, seed: int) -> list[float]:
    """``n`` Poisson arrival offsets at ``rate``/s spanning ``n / rate`` s.

    Given how many arrivals a Poisson process makes in an interval,
    their times are independent and uniform over it; drawing them that
    way keeps the bursts of Poisson traffic while every rung offers its
    nominal rate, so rungs differ by their burst pattern only.
    """
    rng = np.random.default_rng(seed)
    return sorted(float(t) for t in rng.uniform(0.0, n / rate, size=n))


def replay_record(decision) -> dict:
    """The replay-comparable fields ``repro-scouts serve --decision-log``
    writes for one decision (no wall-clock latencies)."""
    return {
        "incident_id": decision.incident_id,
        "suggested_team": decision.suggested_team,
        "acted": decision.acted,
        "answers": {a.team: a.responsible for a in decision.answers},
        "statuses": {o.team: o.status.value for o in decision.outcomes},
        "model_epochs": dict(decision.model_epochs),
    }


def replay_digest(decisions) -> str:
    """sha256 over the sorted-key JSON lines of the replay records."""
    digest = hashlib.sha256()
    for decision in decisions:
        line = json.dumps(replay_record(decision), sort_keys=True) + "\n"
        digest.update(line.encode())
    return digest.hexdigest()
