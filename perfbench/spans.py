"""Outside-in wall-clock spans around the calls into each layer of ``repro``.

The benchmark does not instrument the program: :func:`installed` wraps the
public functions listed in :data:`BOUNDARIES` for the duration of one
traced repetition and restores the originals afterwards. Every wrapped
call records one span — name, start, end and parent — into a
:class:`SpanRecorder`, which keeps them in memory until the run writes
them out. Counts (bytes chunked, features sketched, index hits, ...) are
taken at the same boundaries.

A span's *self time* is its duration minus the durations of its direct
children (calls are synchronous, so children never overlap). Summing
self time per layer splits the traced wall time exactly; whatever no span
covers is the benchmark loop and the client facade, reported as
``unattributed_s``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class SpanRecorder:
    """In-memory span store: four parallel lists indexed by span id."""

    def __init__(self) -> None:
        #: Span name, layer and call-family group per interned name id.
        self.names: list[str] = []
        self.layers: list[str] = []
        self.groups: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def intern(self, layer: str, group: str, name: str) -> int:
        """Register a span name once; returns its id."""
        self.names.append(name)
        self.layers.append(layer)
        self.groups.append(group)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        """Start a span under the innermost open one; returns its id."""
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        """End the innermost open span (``index``)."""
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @property
    def balanced(self) -> bool:
        """True when every opened span has been closed."""
        return len(self._stack) == 1

    def to_json(self, origin_ns: int) -> dict:
        """Spans as plain lists, times in ns relative to ``origin_ns``."""
        return {
            "names": self.names,
            "layers": self.layers,
            "groups": self.groups,
            "fields": ["name_id", "start_ns", "end_ns", "parent"],
            "spans": [
                [name, start - origin_ns, end - origin_ns, parent]
                for name, start, end, parent in zip(
                    self.name_ids, self.starts, self.ends, self.parents
                )
            ],
        }


def self_times(starts: list[int], ends: list[int], parents: list[int]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(starts, ends)]
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            own[parent] -= end - start
    return own


# -- boundary counters ---------------------------------------------------------
# Each takes (counts, args, result, before); ``before`` is what the
# boundary's ``pre`` hook returned when the call started.


def _count_chunked(counts, args, result, before):
    counts["chunking.bytes"] += len(args[1])


def _count_chunked_many(counts, args, result, before):
    counts["chunking.bytes"] += sum(len(data) for data in args[1])


def _count_sketch(counts, args, result, before):
    counts["sketch.records"] += 1
    counts["sketch.features"] += len(result.features)


def _count_sketch_many(counts, args, result, before):
    counts["sketch.records"] += len(result)
    counts["sketch.features"] += sum(len(sketch.features) for sketch in result)


def _count_lookup(counts, args, result, before):
    counts["index.hits"] += bool(result)


def _count_cache_lookup(counts, args, result, before):
    counts["cache.hits"] += result is not None


def _count_encode(counts, args, result, before):
    counts["core.deduped"] += bool(result.deduped)


def _hops_before(args):
    return args[0].decode_base_fetches


def _count_read_hops(counts, args, result, before):
    counts["db.read_hops"] += args[0].decode_base_fetches - before


def _count_sync(counts, args, result, before):
    if result:
        counts["db.replication_syncs"] += 1
        counts["db.replication_bytes"] += result


def _count_snappy(counts, args, result, before):
    counts["compression.bytes_in"] += len(args[1])
    counts["compression.bytes_out"] += len(result)


def _count_gc(counts, args, result, before):
    counts["gc.reclaimed_bytes"] += result.reclaimed_bytes
    counts["gc.rollbacks"] += result.outcome == "rolled_back"


@dataclass(frozen=True)
class Boundary:
    """One public function wrapped as a span of ``layer``.

    ``group`` names the call family a per-layer metric times or counts
    (``index.lookup``, ``db.oplog``, ...); ``owner`` is a class in
    ``module``, or None for a module-level function.
    """

    layer: str
    group: str
    module: str
    owner: str | None
    attr: str
    count: Callable | None = None
    pre: Callable | None = None


#: Every layer boundary the traced run wraps, outermost layers first.
BOUNDARIES = (
    # db: the cluster entry points the client facade calls, then the
    # read chain walk, the oplog and replication.
    Boundary("db", "db.setup", "repro.db.cluster", "Cluster", "from_spec"),
    Boundary("db", "db.execute", "repro.db.cluster", "Cluster", "execute"),
    Boundary("db", "db.execute", "repro.db.cluster", "Cluster", "client_read"),
    Boundary("db", "db.finalize", "repro.db.cluster", "Cluster", "finalize"),
    Boundary("db", "db.stats", "repro.db.cluster", "Cluster", "summary_stats"),
    Boundary("db", "db.read", "repro.db.database", "Database", "read",
             _count_read_hops, _hops_before),
    Boundary("db", "db.oplog", "repro.db.oplog", "Oplog", "append"),
    Boundary("db", "db.oplog", "repro.db.oplog", "Oplog", "bytes_since"),
    Boundary("db", "db.replication", "repro.db.replication",
             "ReplicationLink", "maybe_sync"),
    Boundary("db", "db.replication", "repro.db.replication",
             "ReplicationLink", "sync", _count_sync),
    Boundary("db", "db.replication", "repro.db.node", "SecondaryNode",
             "apply_batch"),
    # core: the encode workflow, source selection, write-back planning.
    Boundary("core", "core.encode", "repro.core.engine", "DedupEngine",
             "encode", _count_encode),
    Boundary("core", "core.select", "repro.core.selector", "SourceSelector",
             "select"),
    Boundary("core", "core.plan", "repro.core.planner", "WritebackPlanner",
             "plan"),
    Boundary("gc", "gc.plan", "repro.core.gc", "GarbageCollector", "plan"),
    Boundary("gc", "gc.run", "repro.core.gc", "GarbageCollector", "run",
             _count_gc),
    Boundary("chunking", "chunking", "repro.chunking.cdc",
             "ContentDefinedChunker", "boundaries", _count_chunked),
    Boundary("chunking", "chunking", "repro.chunking.cdc",
             "ContentDefinedChunker", "boundaries_many", _count_chunked_many),
    Boundary("sketch", "sketch", "repro.sketch.features", "SketchExtractor",
             "sketch", _count_sketch),
    Boundary("sketch", "sketch", "repro.sketch.features", "SketchExtractor",
             "sketch_many", _count_sketch_many),
    Boundary("index", "index.lookup", "repro.index.cuckoo",
             "CuckooFeatureIndex", "lookup_and_insert", _count_lookup),
    Boundary("index", "index.remove", "repro.index.cuckoo",
             "CuckooFeatureIndex", "remove_record"),
    # cache: source fetches (get) and read-path chain shortcuts (peek)
    # share one source record cache.
    Boundary("cache", "cache.lookup", "repro.cache.source_cache",
             "SourceRecordCache", "get", _count_cache_lookup),
    Boundary("cache", "cache.lookup", "repro.cache.source_cache",
             "SourceRecordCache", "peek", _count_cache_lookup),
    Boundary("cache", "cache.admit", "repro.cache.source_cache",
             "SourceRecordCache", "admit"),
    Boundary("delta", "delta.encode", "repro.delta.dbdelta",
             "DeltaCompressor", "compress"),
    # Decode is wrapped where the database looks the functions up, so
    # only the read/fetch path's decodes are counted.
    Boundary("delta", "delta.decode", "repro.db.database", None, "apply_delta"),
    Boundary("delta", "delta.decode", "repro.db.database", None, "deserialize"),
    Boundary("storage", "storage.heap", "repro.storage.heapfile",
             "HeapFileStore", "place"),
    Boundary("storage", "storage.heap", "repro.storage.heapfile",
             "HeapFileStore", "update"),
    Boundary("storage", "storage.heap", "repro.storage.heapfile",
             "HeapFileStore", "remove"),
    Boundary("storage", "storage.heap", "repro.storage.heapfile",
             "HeapFileStore", "physical_bytes"),
    Boundary("storage", "storage.write_page", "repro.storage.device",
             "SimBlockDevice", "write_page"),
    Boundary("compression", "compression", "repro.compression.snappy",
             "SnappyCompressor", "compress", _count_snappy),
    Boundary("sim", "sim", "repro.sim.disk", "SimDisk", "submit"),
    Boundary("sim", "sim", "repro.sim.network", "SimNetwork", "transfer"),
)

#: Layers in report order; the layers' self times plus the unattributed
#: remainder add up to the traced wall time.
LAYERS = (
    "db", "core", "gc", "chunking", "sketch", "index", "cache", "delta",
    "storage", "compression", "sim",
)


def _traced(recorder, name_id, fn, count, pre):
    # Most boundaries count nothing; their wrapper skips the hook calls,
    # since wrapper cost is what the tracing overhead is made of.
    if count is None:
        def traced(*args, **kwargs):
            index = recorder.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)
        return traced

    def traced_counted(*args, **kwargs):
        before = pre(args) if pre is not None else None
        index = recorder.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        count(recorder.counts, args, result, before)
        return result
    return traced_counted


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every boundary for the body of the ``with``; always restores."""
    restore = []
    try:
        for b in BOUNDARIES:
            module = importlib.import_module(b.module)
            owner = module if b.owner is None else getattr(module, b.owner)
            raw = vars(owner)[b.attr]
            name_id = recorder.intern(
                b.layer, b.group, f"{b.owner or b.module}.{b.attr}"
            )
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _traced(recorder, name_id, raw.__func__, b.count, b.pre)
                )
            else:
                wrapped = _traced(recorder, name_id, raw, b.count, b.pre)
            setattr(owner, b.attr, wrapped)
            restore.append((owner, b.attr, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def summarize(recorder: SpanRecorder, wall_ns: int) -> dict:
    """Per-layer self time, per-group calls and outermost inclusive time.

    Returns ``{"self_ns": {layer: ns}, "calls": {group: n},
    "inclusive_ns": {group: ns}, "unattributed_ns": ns}``; the mappings
    are Counters, so a layer or group with no spans reads 0. A group's
    inclusive time counts only spans with no ancestor of the same group,
    so nested calls of one family (``maybe_sync`` → ``sync``) are not
    counted twice.
    """
    groups = recorder.groups
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    self_ns: Counter[str] = Counter({layer: 0 for layer in LAYERS})
    calls: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    name_ids, parents = recorder.name_ids, recorder.parents
    for index, name_id in enumerate(name_ids):
        self_ns[recorder.layers[name_id]] += own[index]
        group = groups[name_id]
        calls[group] += 1
        ancestor = parents[index]
        while ancestor >= 0 and groups[name_ids[ancestor]] != group:
            ancestor = parents[ancestor]
        if ancestor < 0:
            inclusive[group] += recorder.ends[index] - recorder.starts[index]
    return {
        "self_ns": self_ns,
        "calls": calls,
        "inclusive_ns": inclusive,
        "unattributed_ns": wall_ns - sum(self_ns.values()),
    }
