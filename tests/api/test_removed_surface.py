"""Retired construction and configuration paths are rejected outright.

Each check names a removed path: positional constructors, the flat index
knobs, the ``chunker_impl`` lane knob and its CLI flag, and the modules
that carried the shims. None of them may come back as a silent alias.
"""

import importlib

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.cli import main
from repro.core import DedupConfig, DedupEngine
from repro.db.cluster import ClusterConfig
from repro.db.node import PrimaryNode, SecondaryNode
from repro.sim.clock import SimClock


def _cluster_class():
    return type(open_cluster(ClusterSpec()).cluster)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: DedupEngine(DedupConfig()), id="DedupEngine"),
    pytest.param(lambda: _cluster_class()(ClusterConfig()), id="Cluster"),
    pytest.param(lambda: PrimaryNode(SimClock()), id="PrimaryNode"),
    pytest.param(lambda: SecondaryNode(SimClock()), id="SecondaryNode"),
])
def test_positional_construction_raises(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: DedupConfig(index_buckets=1 << 10), id="index_buckets"),
    pytest.param(lambda: DedupConfig(index_slots=2), id="index_slots"),
    pytest.param(lambda: DedupConfig(max_candidates=3), id="max_candidates"),
    pytest.param(lambda: DedupConfig(chunker_impl="scalar"), id="dedup-chunker_impl"),
    pytest.param(lambda: ClusterSpec(chunker_impl="scalar"), id="spec-chunker_impl"),
])
def test_removed_config_fields_raise(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("command", [
    ["run", "--target-bytes", "20000"],
    ["trace-replay", "missing.trace"],
])
def test_cli_rejects_chunker_impl_flag(command):
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--chunker-impl", "scalar"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("module", [
    "repro.core.governor",
    "repro.util.deprecation",
    "repro.hashing.rabin",
])
def test_shim_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
