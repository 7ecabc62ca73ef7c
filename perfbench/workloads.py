"""The benchmark's workloads, generated in full from ``--seed`` before timing.

Each workload is one closed-loop, single-client trace against a cluster
opened through :mod:`repro.api`. A :class:`Plan` holds everything the
harness needs: the spec to open, an optional load phase, the timed phase,
and the content every record must hold afterwards. The harness only
replays the plan, so generation stays out of every measurement.

Sizes are chosen so each phase lasts long enough to time, and so
wiki-history makes 100 deletes per repetition (enough for a p90 tail).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import DedupConfig
from repro.api import ClusterSpec
from repro.workloads import OltpWorkload, Operation, WikipediaWorkload, derive_seed


@dataclass(frozen=True, slots=True)
class Step:
    """One client call: ``kind`` is insert/read/update/delete/idle.

    ``expected`` is what a read must return: the content last written
    for the record, or None once it is deleted.
    """

    kind: str
    record_id: str = ""
    content: bytes | None = None
    expected: bytes | None = None


@dataclass(frozen=True)
class Plan:
    """A generated workload instance."""

    name: str
    spec: ClusterSpec
    database: str
    #: Insert phase feeding the ingest metrics before the timed phase
    #: (empty when the timed phase does the inserting).
    load: tuple[Step, ...]
    timed: tuple[Step, ...]
    #: Record id -> content it must read back as after the run (None:
    #: deleted).
    final: dict[str, bytes | None]
    #: The idle operation idle steps execute.
    idle_op: Operation | None = None


#: Full-size parameters. ``scale`` in :func:`make_plan` shrinks byte and
#: operation counts together (tests use tiny scales).
WIKI_INGEST_BYTES = 3_000_000
WIKI_HISTORY_BYTES = 3_000_000
#: An eighth of the history corpus, so reads and source fetches miss.
WIKI_HISTORY_CACHE_BYTES = 384 * 1024
WIKI_HISTORY_OPS = 10_000
#: Exactly one delete in every block of this many timed operations.
WIKI_HISTORY_DELETE_EVERY = 100
#: An idle gap after every this many operations lets write-back flushes
#: and GC batches run (§3.3.2 idleness).
WIKI_HISTORY_IDLE_EVERY = 250
WIKI_HISTORY_IDLE_S = 1.0
#: GC's default 64 KiB reclaim floor is never reached by a few dozen
#: tombstoned deltas; a 4 KiB floor lets the idle slices collect.
WIKI_HISTORY_GC_FLOOR = 4096
OLTP_BYTES = 400_000


def _inserts(workload) -> list[Step]:
    return [
        Step("insert", op.record_id, op.content)
        for op in workload.insert_trace()
    ]


def _wiki_ingest(seed: int, scale: float) -> Plan:
    workload = WikipediaWorkload(
        seed=seed, target_bytes=max(10_000, int(WIKI_INGEST_BYTES * scale))
    )
    timed = _inserts(workload)
    return Plan(
        name="wiki-ingest",
        spec=ClusterSpec(),
        database=workload.database_name(),
        load=(),
        timed=tuple(timed),
        final={step.record_id: step.content for step in timed},
    )


def _wiki_history(seed: int, scale: float) -> Plan:
    workload = WikipediaWorkload(
        seed=seed, target_bytes=max(10_000, int(WIKI_HISTORY_BYTES * scale))
    )
    load = _inserts(workload)
    content: dict[str, bytes | None] = {s.record_id: s.content for s in load}
    latest = {s.record_id.rsplit("/", 1)[0]: s.record_id for s in load}
    latest_ids = set(latest.values())
    # Swap-remove pools: uniform choice and O(1) removal.
    live = [s.record_id for s in load]
    old = [rid for rid in live if rid not in latest_ids]
    live_at = {rid: i for i, rid in enumerate(live)}
    old_at = {rid: i for i, rid in enumerate(old)}

    def take(pool, where, rid):
        i = where.pop(rid)
        last = pool.pop()
        if last != rid:
            pool[i] = last
            where[last] = i

    rng = random.Random(derive_seed(seed, "perfbench/wiki-history/timed"))
    ops = max(WIKI_HISTORY_DELETE_EVERY, int(WIKI_HISTORY_OPS * scale))
    timed: list[Step] = []
    delete_at = 0
    for i in range(ops):
        if i % WIKI_HISTORY_DELETE_EVERY == 0:
            delete_at = i + rng.randrange(WIKI_HISTORY_DELETE_EVERY)
        if i == delete_at and old:
            rid = old[rng.randrange(len(old))]
            take(old, old_at, rid)
            take(live, live_at, rid)
            content[rid] = None
            timed.append(Step("delete", rid))
        else:
            rid = live[rng.randrange(len(live))]
            timed.append(Step("read", rid, expected=content[rid]))
        if i % WIKI_HISTORY_IDLE_EVERY == WIKI_HISTORY_IDLE_EVERY - 1:
            timed.append(Step("idle"))
    dedup = DedupConfig(
        source_cache_bytes=max(64 * 1024, int(WIKI_HISTORY_CACHE_BYTES * scale))
    )
    return Plan(
        name="wiki-history",
        spec=ClusterSpec(
            dedup=dedup,
            gc_enabled=True,
            gc_reclaim_threshold_bytes=WIKI_HISTORY_GC_FLOOR,
        ),
        database=workload.database_name(),
        load=tuple(load),
        timed=tuple(timed),
        final=content,
        idle_op=Operation(kind="idle", idle_seconds=WIKI_HISTORY_IDLE_S),
    )


def _oltp_mixed(seed: int, scale: float) -> Plan:
    workload = OltpWorkload(
        seed=seed, target_bytes=max(10_000, int(OLTP_BYTES * scale))
    )
    content: dict[str, bytes | None] = {}
    timed: list[Step] = []
    for op in workload.mixed_trace():
        if op.kind == "read":
            timed.append(Step("read", op.record_id, expected=content[op.record_id]))
        else:
            content[op.record_id] = op.content
            timed.append(Step(op.kind, op.record_id, op.content))
    return Plan(
        name="oltp-mixed",
        spec=ClusterSpec(physical_storage=True, block_compression="snappy"),
        database=workload.database_name(),
        load=(),
        timed=tuple(timed),
        final=content,
    )


#: Workload name -> plan factory ``(seed, scale) -> Plan``.
WORKLOADS = {
    "wiki-ingest": _wiki_ingest,
    "wiki-history": _wiki_history,
    "oltp-mixed": _oltp_mixed,
}


def make_plan(name: str, seed: int, scale: float = 1.0) -> Plan:
    """Generate workload ``name`` from ``seed`` (``scale`` < 1 shrinks it)."""
    return WORKLOADS[name](seed, scale)
