"""Components bind collector installers to registry slots.

A cluster's components (engine, nodes, the cluster itself) bind their
collector installers to one registry slot each; the registry runs them
on first read. These tests pin the two consequences: a rebuilt component
replaces its predecessor's collectors instead of stacking on them, and
when the registry is first read never changes what it exports.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.obs import registry as registry_module
from repro.obs.export import metrics_document
from repro.workloads import OltpWorkload, WikipediaWorkload

#: Families built eagerly by ``open_cluster(ClusterSpec())``: the ones
#: whose children sit on hot paths (DedupStats, the audit trail,
#: ``op_latency_seconds``, ``slo_events_total``). Every collector-fed
#: family waits for the first read.
EAGER_FAMILIES = 21


def _engine_family_names(engine) -> list[str]:
    return [family.name for family, _ in engine._collectors()]


def _crash_restart(client, cycles: int, refs: list) -> None:
    for _ in range(cycles):
        refs.append(weakref.ref(client.cluster.primary.engine))
        client.cluster.primary.crash()
        client.cluster.primary.restart()
        client.registry.snapshot()  # materialise every generation


class TestGenerations:
    def _loaded(self, **spec):
        client = open_cluster(ClusterSpec(**spec))
        for i in range(10):
            client.insert("db", f"r{i}", (b"record %d body " % i) * 30)
        client.finalize()
        client.registry.snapshot()
        return client

    def test_restarted_engines_are_collectable(self):
        client = self._loaded()
        refs: list = []
        _crash_restart(client, 5, refs)
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5

    def test_engine_families_keep_one_generation_across_restarts(self):
        client = self._loaded()
        _crash_restart(client, 5, [])
        registry = client.registry
        names = _engine_family_names(client.cluster.primary.engine)
        assert {"source_cache_hits_total", "cuckoo_lookups_total",
                "size_filter_threshold_bytes"} <= set(names)
        for name in names:
            assert len(registry.get(name)._collectors) == 1, name

    def test_dead_generation_rows_vanish(self):
        client = self._loaded()
        for i in range(10):
            client.insert("gone", f"g{i}", (b"doomed %d " % i) * 30)
        client.finalize()
        assert client.registry.value("cuckoo_inserts_total", "gone") > 0
        for i in range(10):
            client.delete("gone", f"g{i}")
        client.finalize()
        _crash_restart(client, 1, [])
        # The rebuilt engine never saw "gone"; its index rows went with
        # the dead engine.
        for name in ("cuckoo_entries", "cuckoo_inserts_total",
                     "size_filter_threshold_bytes"):
            assert ("gone",) not in dict(client.registry.get(name).items())

    def test_promotion_replaces_node_and_engine_generations(self):
        client = self._loaded(num_secondaries=2, oplog_batch_bytes=1)
        cluster = client.cluster
        winner = weakref.ref(cluster.secondaries[0])
        old_primary = weakref.ref(cluster.primary)
        cluster.primary.crash()
        client.insert("db", "after", b"written after the crash" * 10)
        assert cluster.failover.failovers == 1
        client.finalize()  # settles the old primary's rejoin
        registry = client.registry
        disk_reads = registry.get("disk_reads_total")
        assert len(disk_reads._collectors) == 3
        assert {key for key, _ in disk_reads.items()} == {
            ("primary",), ("secondary0",), ("secondary1",)
        }
        for name in _engine_family_names(cluster.primary.engine):
            assert len(registry.get(name)._collectors) == 1, name
        # The promoted node no longer exports the secondary-only family.
        fallbacks = dict(registry.get("secondary_decode_fallbacks_total").items())
        assert ("secondary0",) not in fallbacks
        assert ("primary",) in fallbacks  # the rejoined old primary
        gc.collect()
        assert winner() is None
        assert old_primary() is None


def _wikipedia_ops():
    return list(WikipediaWorkload(seed=3, target_bytes=60_000).mixed_trace())


def _oltp_ops():
    return list(OltpWorkload(seed=3, target_bytes=20_000).mixed_trace())


class TestLazyExport:
    @pytest.mark.parametrize(
        "spec, trace",
        [
            (ClusterSpec(), _wikipedia_ops),
            (ClusterSpec(physical_storage=True, block_compression="snappy"),
             _oltp_ops),
        ],
        ids=["wikipedia", "oltp"],
    )
    def test_reading_early_does_not_change_export(self, spec, trace):
        operations = trace()
        documents = []
        for read_early in (True, False):
            client = open_cluster(spec)
            if read_early:
                client.registry.snapshot()
            client.run(operations)
            client.finalize()
            documents.append(
                json.dumps(metrics_document(client.registry), sort_keys=True)
            )
        assert documents[0] == documents[1]

    def test_open_cluster_builds_only_eager_families(self, monkeypatch):
        built: list[str] = []
        init = registry_module.InstrumentFamily.__init__

        def counting_init(family, name, *args, **kwargs):
            built.append(name)
            init(family, name, *args, **kwargs)

        monkeypatch.setattr(
            registry_module.InstrumentFamily, "__init__", counting_init
        )
        client = open_cluster(ClusterSpec())
        assert len(built) <= EAGER_FAMILIES, sorted(built)
        client.registry.snapshot()
        assert len(built) > 4 * EAGER_FAMILIES
