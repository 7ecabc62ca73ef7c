"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, spans, workloads

ROOT = Path(__file__).resolve().parents[2]

#: Small enough that every workload replays in well under a second.
TINY = 0.03
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tail-percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(5000, 99), (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90),
     (99, None), (0, None)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_tail_percentile_counts_samples_beyond_nearest_rank():
    for n in [*range(1, 230), *range(990, 1010)]:
        p = harness.tail_percentile(n)
        if p is not None:
            values = list(range(n))
            beyond = n - 1 - harness.percentile(values, p)
            assert beyond >= harness.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert harness.percentile(values, 50) == 3
    assert harness.percentile(values, 90) == 5
    assert harness.percentile([7], 99) == 7


# -- span self-time arithmetic ------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > a1 [20,30]; root > b [50,90]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    own = spans.self_times(starts, ends, parents)
    assert own == [30, 20, 10, 40]
    assert sum(own) == 100


def _recorded(tree):
    """A recorder holding ``tree``: ``(layer, group, start, end, parent)``."""
    recorder = spans.SpanRecorder()
    for layer, group, start, end, parent in tree:
        recorder.name_ids.append(recorder.intern(layer, group, group))
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
    return recorder


def test_summarize_splits_wall_into_layers_and_unattributed():
    recorder = _recorded([
        ("db", "db.replication", 10, 60, -1),   # maybe_sync
        ("db", "db.oplog", 12, 20, 0),          # bytes_since
        ("db", "db.replication", 25, 55, 0),    # sync under maybe_sync
        ("sim", "sim", 30, 40, 2),
        ("db", "db.replication", 70, 80, -1),   # a sync of its own
    ])
    summary = spans.summarize(recorder, wall_ns=100)
    assert summary["self_ns"]["db"] == (50 - 8 - 30) + 8 + (30 - 10) + 10
    assert summary["self_ns"]["sim"] == 10
    assert summary["unattributed_ns"] == 100 - 60
    assert sum(summary["self_ns"].values()) + summary["unattributed_ns"] == 100
    # Nested calls of one family are timed once, at the outermost call.
    assert summary["inclusive_ns"]["db.replication"] == 50 + 10
    assert summary["calls"]["db.replication"] == 3


def test_installed_restores_every_original():
    originals = {}
    for b in spans.BOUNDARIES:
        owner = importlib.import_module(b.module)
        owner = owner if b.owner is None else getattr(owner, b.owner)
        originals[(b.module, b.owner, b.attr)] = (owner, vars(owner)[b.attr])
    with spans.installed(spans.SpanRecorder()):
        for (_, _, attr), (owner, raw) in originals.items():
            assert vars(owner)[attr] is not raw
    for (_, _, attr), (owner, raw) in originals.items():
        assert vars(owner)[attr] is raw


# -- failure counting ---------------------------------------------------------


def test_wrong_expected_read_counts_as_one_failure():
    plan = workloads.make_plan("oltp-mixed", seed=3, scale=TINY)
    first_read = next(i for i, s in enumerate(plan.timed) if s.kind == "read")
    timed = list(plan.timed)
    timed[first_read] = dataclasses.replace(timed[first_read], expected=b"wrong")
    rep = harness.run_rep(dataclasses.replace(plan, timed=tuple(timed)))
    assert rep.failed == 1
    result = harness.RunResult([rep], [], [rep.setup_s], 0.0)
    assert result.failed == 1
    assert result.end_to_end()["fail_ratio"] == 1 / rep.attempted
    assert any("1 of" in line for line in result.problems())


def test_raising_operation_counts_as_failure():
    plan = workloads.make_plan("wiki-ingest", seed=3, scale=TINY)
    duplicate = plan.timed[0]  # inserting an existing id raises
    rep = harness.run_rep(dataclasses.replace(plan, timed=plan.timed + (duplicate,)))
    assert rep.failed == 1
    assert "RecordExists" in rep.errors[0]


def test_deleted_record_must_read_back_as_none():
    plan = workloads.make_plan("wiki-history", seed=3, scale=TINY)
    deleted = [rid for rid, content in plan.final.items() if content is None]
    assert deleted
    final = dict(plan.final)
    final[deleted[0]] = b"resurrected"
    rep = harness.run_rep(dataclasses.replace(plan, final=final))
    assert rep.failed == 1


# -- seed and generation hygiene ----------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_a_function_of_the_seed(name):
    first = workloads.make_plan(name, seed=5, scale=TINY)
    again = workloads.make_plan(name, seed=5, scale=TINY)
    other = workloads.make_plan(name, seed=6, scale=TINY)
    assert first.load + first.timed == again.load + again.timed
    assert first.load + first.timed != other.load + other.timed


def test_wiki_history_mix_is_exact():
    plan = workloads.make_plan("wiki-history", seed=9, scale=0.1)
    ops = workloads.WIKI_HISTORY_OPS // 10
    kinds = [s.kind for s in plan.timed if s.kind != "idle"]
    assert len(kinds) == ops
    assert kinds.count("delete") == ops // workloads.WIKI_HISTORY_DELETE_EVERY
    idles = sum(s.kind == "idle" for s in plan.timed)
    assert idles == ops // workloads.WIKI_HISTORY_IDLE_EVERY
    latest = {s.record_id.rsplit("/", 1)[0]: s.record_id for s in plan.load}
    deleted = {s.record_id for s in plan.timed if s.kind == "delete"}
    assert not deleted & set(latest.values())


# -- tiny smoke runs ----------------------------------------------------------


def _names(section):
    return [metric["name"] for metric in DEFINITION[section]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name):
    plan = workloads.make_plan(name, seed=2, scale=TINY)
    result = harness.measure(plan, seconds=0, trace=True)
    assert result.problems() == []
    assert result.failed == 0
    end_to_end = result.end_to_end()
    for metric in _names("end_to_end"):
        if metric != "insert_tail_ms":  # tiny runs have too few samples
            assert end_to_end[metric] > 0, metric
    per_layer = result.per_layer()
    assert set(_names("per_layer")) == set(per_layer)
    rep = result.traced[-1]
    layers = sum(rep.layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + rep.layers["unattributed_s"] == pytest.approx(
        rep.wall_ns / 1e9, abs=1e-9
    )
    assert len(result.traced[-1].recorder.starts) > 0


def test_fingerprint_ignores_pythonhashseed():
    code = (
        "from perfbench import harness, workloads\n"
        "plan = workloads.make_plan('wiki-history', seed=4, scale=0.05)\n"
        "print(harness.run_rep(plan).fingerprint)\n"
    )
    env_path = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    outputs = {
        seed: subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": env_path},
        ).stdout
        for seed in ("0", "1")
    }
    assert outputs["0"] == outputs["1"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wiki-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout == ""


def test_layer_map_names_known_layers_metrics_and_workloads():
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    per_layer = set(_names("per_layer"))
    assert set(layer_map["layers"]) == set(spans.LAYERS)
    for layer in layer_map["layers"].values():
        assert set(layer["metrics"]) <= per_layer
        assert set(layer["moves"]) | set(layer.get("unmoved", ())) <= set(workloads.WORKLOADS)
    assert set(layer_map["whole_run"]) <= per_layer
    for workload, shares in layer_map["baseline_share"].items():
        assert workload in workloads.WORKLOADS
        assert set(shares) <= set(spans.LAYERS) | {"unattributed"}
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)

