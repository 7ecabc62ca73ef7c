"""Differential property: the sparse cuckoo index ≡ the frozen dense one.

Random operation sequences run against both layouts on tiny geometries
(1-8 buckets, 1-2 slots, 1-3 candidates) where displacements, cap
evictions and recency ties happen on almost every step. After every
operation the return value (order included), ``len``, ``memory_bytes``,
the six traffic counters, ``record_ids()`` and the full bucket/slot
layout must agree. The tiered index, whose hot tier is the cuckoo class,
is checked the same way under a hot budget small enough to spill.
"""

from dense_cuckoo import CuckooFeatureIndex as DenseCuckooFeatureIndex
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec
from repro.index.cuckoo import CuckooFeatureIndex
from repro.index.tiered import HOT_ENTRY_BYTES, TieredFeatureIndex

COUNTERS = (
    "lookups", "inserts", "displacements", "lru_evictions", "hot_hits", "misses",
)

#: A small feature pool so the same feature recurs and buckets collide.
features = st.integers(0, 9)
records = st.integers(0, 5)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), features),
        st.tuples(st.just("insert"), features, records),
        st.tuples(
            st.just("insert_batch"),
            st.lists(st.tuples(features, records), max_size=6),
        ),
        st.tuples(st.just("lookup_and_insert"), features, records),
        st.tuples(st.just("remove_record"), records),
        st.tuples(st.just("pop_lru"), st.integers(0, 5)),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)

geometries = st.tuples(st.integers(1, 8), st.integers(1, 2), st.integers(1, 3))


def _apply(index, operation):
    name, *args = operation
    if name == "insert_batch":
        (pairs,) = args
        return index.insert_batch([f for f, _ in pairs], [r for _, r in pairs])
    return getattr(index, name)(*args)


def _layout(index) -> list:
    """Occupied buckets in index order, entries in slot order."""
    buckets = index._buckets
    if isinstance(buckets, dict):
        occupied = sorted(buckets.items())
    else:
        occupied = [(i, b.slots) for i, b in enumerate(buckets) if b.slots]
    return [
        (i, [(e.checksum, e.record, e.last_used, e.feature, e.bucket) for e in slots])
        for i, slots in occupied
    ]


def _state(index) -> tuple:
    return (
        len(index),
        index.memory_bytes,
        tuple(getattr(index, counter) for counter in COUNTERS),
        index.record_ids(),
    )


@settings(max_examples=300, deadline=None)
@given(geometries, operations)
def test_sparse_matches_dense(geometry, ops):
    buckets, slots, candidates = geometry
    sparse = CuckooFeatureIndex(buckets, slots, candidates)
    dense = DenseCuckooFeatureIndex(buckets, slots, candidates)
    for operation in ops:
        assert _apply(sparse, operation) == _apply(dense, operation), operation
        assert _state(sparse) == _state(dense), operation
        assert _layout(sparse) == _layout(dense), operation
    # Draining both completely compares the whole LRU order.
    assert sparse.pop_lru(len(sparse)) == dense.pop_lru(len(dense))


def test_pop_lru_ties_follow_bucket_index_order():
    """Equal recency across two buckets pops the lower bucket index first,
    even when the higher-index bucket was occupied first."""
    feature = next(
        f for f in range(64) if CuckooFeatureIndex(2, 1, 3)._bucket_indexes(f)[0] == 1
    )
    results = []
    for index in (CuckooFeatureIndex(2, 1, 3), DenseCuckooFeatureIndex(2, 1, 3)):
        index.insert(feature, "first")   # bucket 1
        index.insert(feature, "second")  # bucket 0
        index.lookup(feature)            # refreshes both to one clock tick
        results.append(index.pop_lru(2))
    assert results[0] == results[1] == [(feature, "second"), (feature, "first")]


@settings(max_examples=150, deadline=None)
@given(geometries, operations, st.integers(1, 6))
def test_tiered_over_sparse_matches_tiered_over_dense(geometry, ops, hot_entries):
    buckets, slots, candidates = geometry
    spec = IndexSpec(
        kind="tiered",
        num_buckets=buckets,
        slots_per_bucket=slots,
        max_candidates=candidates,
        hot_bytes_budget=hot_entries * HOT_ENTRY_BYTES,
        cold_bands=4,
        cold_band_records=4,
    )
    sparse = TieredFeatureIndex(spec)
    dense = TieredFeatureIndex(spec)
    dense.hot = DenseCuckooFeatureIndex(buckets, slots, candidates)
    for operation in ops:
        if operation[0] == "pop_lru":
            continue  # hot-tier internal; the spill path drives it here
        assert _apply(sparse, operation) == _apply(dense, operation), operation
        assert _state(sparse) == _state(dense), operation
        assert sparse.tier_report() == dense.tier_report(), operation
        assert _layout(sparse.hot) == _layout(dense.hot), operation
