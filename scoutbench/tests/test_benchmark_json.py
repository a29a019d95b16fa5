"""BENCHMARK.json names exactly the workloads and metrics the benchmark reports."""

from __future__ import annotations

import json
import os

import workloads

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_workloads_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_and_units_match():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
