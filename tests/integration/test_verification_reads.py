"""Verification reads leave the verified system exactly as it was.

``check_invariants()`` and ``replicas_converged()`` decode every live
record. If those reads went through the client read path they would
charge simulated disk time, admit contents into the source record cache
and splice tombstones out of chains, so merely *checking* a run would
change its figures. The same trace is replayed twice; only one replay
checks mid-trace, and every observable output must be byte-identical.
"""

from __future__ import annotations

import json
import random

from repro.api import ClusterSpec, open_cluster
from repro.core.config import DedupConfig
from repro.obs.export import metrics_document
from repro.workloads.base import Operation
from repro.workloads.wikipedia import WikipediaWorkload

#: Small enough that mid-trace reads decode chains instead of hitting
#: the cache, with GC on so tombstones are live splice candidates.
SPEC = ClusterSpec(
    dedup=DedupConfig(source_cache_bytes=16 * 1024),
    gc_enabled=True,
    gc_reclaim_threshold_bytes=1024,
)


def _phases() -> tuple[list[Operation], list[Operation]]:
    workload = WikipediaWorkload(seed=5, target_bytes=200_000)
    load = list(workload.insert_trace())
    database = workload.database_name()
    ids = [op.record_id for op in load]
    rng = random.Random(5)
    deleted = set(rng.sample(ids[: len(ids) // 2], 12))
    timed: list[Operation] = []
    for position, record_id in enumerate(ids):
        if record_id in deleted:
            timed.append(Operation("delete", database, record_id))
        timed.append(Operation("read", database, rng.choice(ids)))
        if position % 25 == 24:
            timed.append(Operation(kind="idle", idle_seconds=0.5))
    return load, timed


def _replay(check_midway: bool) -> tuple[float, str, str]:
    load, timed = _phases()
    client = open_cluster(SPEC)
    client.run(load)
    client.finalize()
    if check_midway:
        assert client.replicas_converged()
        assert client.check_invariants().ok
    client.run(timed)
    client.finalize()
    metrics = metrics_document(client.registry)
    return (
        client.clock.now,
        json.dumps(client.stats(), sort_keys=True),
        json.dumps(metrics, sort_keys=True),
    )


def test_checks_do_not_perturb_the_run():
    unchecked = _replay(check_midway=False)
    checked = _replay(check_midway=True)
    assert checked[0] == unchecked[0]
    assert checked[1] == unchecked[1]
    assert checked[2] == unchecked[2]
