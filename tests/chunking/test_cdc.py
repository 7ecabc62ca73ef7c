"""Content-defined chunking invariants, for the chunker and its scalar oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.cdc import ContentDefinedChunker, normalized_masks
from repro.chunking.scalar import scalar_boundaries
from repro.workloads.text import TextGenerator

#: ``chunker_lanes`` keys: the scalar oracle and the production chunker.
LANES = ("scalar", "vectorized")


def random_bytes(n: int, seed: int = 1) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


class TestValidation:
    def test_avg_size_power_of_two(self):
        with pytest.raises(ValueError):
            ContentDefinedChunker(avg_size=100)

    def test_min_le_avg_le_max(self):
        with pytest.raises(ValueError):
            ContentDefinedChunker(avg_size=256, min_size=512)
        with pytest.raises(ValueError):
            ContentDefinedChunker(avg_size=256, max_size=128)

    def test_normalized_masks_shape(self):
        strict, loose = normalized_masks(64)
        # avg=2^6: strict spends 8 bits, loose 4 — strict ⊂ loose matches.
        assert strict == 0xFF and loose == 0x0F
        assert strict & loose == loose


@pytest.mark.parametrize("impl", LANES)
class TestChunking:
    def test_empty_input(self, chunker_lanes, impl):
        chunker = chunker_lanes[impl](avg_size=256)
        assert chunker.chunks(b"") == []
        assert chunker.boundaries(b"") == []

    def test_concatenation_restores_input(self, chunker_lanes, impl):
        data = random_bytes(20_000)
        chunker = chunker_lanes[impl](avg_size=256)
        assert b"".join(c.data for c in chunker.chunks(data)) == data

    def test_chunk_offsets_consistent(self, chunker_lanes, impl):
        data = random_bytes(5000, seed=3)
        for chunk in chunker_lanes[impl](avg_size=128).chunks(data):
            assert chunk.data == data[chunk.start : chunk.end]
            assert len(chunk) == chunk.end - chunk.start

    def test_low_entropy_input_hits_max_size(self, chunker_lanes, impl):
        # Constant data produces one hash everywhere; the max clamp must
        # force boundaries.
        data = b"\x00" * 10_000
        chunker = chunker_lanes[impl](avg_size=256)
        sizes = [len(c) for c in chunker.chunks(data)]
        assert max(sizes) <= chunker.max_size
        assert b"".join(c.data for c in chunker.chunks(data)) == data

    def test_boundary_shift_invariance(self, chunker_lanes, impl):
        # Prepending data only disturbs chunks near the edit: boundaries in
        # the untouched tail reappear at shifted offsets.
        data = random_bytes(30_000, seed=5)
        chunker = chunker_lanes[impl](avg_size=256)
        original = set(chunker.boundaries(data))
        prefix = b"PREFIXPREFIX"
        shifted = set(
            boundary - len(prefix)
            for boundary in chunker.boundaries(prefix + data)
        )
        tail = {b for b in original if b > 2000}
        shared = tail & shifted
        assert len(shared) / len(tail) > 0.8

    def test_deterministic(self, chunker_lanes, impl):
        data = random_bytes(10_000, seed=6)
        chunker = chunker_lanes[impl](avg_size=512)
        assert chunker.boundaries(data) == chunker.boundaries(data)

    @settings(max_examples=25)
    @given(data=st.binary(min_size=0, max_size=5000))
    def test_property_partition(self, chunker_lanes, impl, data):
        chunker = chunker_lanes[impl](avg_size=64)
        boundaries = chunker.boundaries(data)
        if data:
            assert boundaries[-1] == len(data)
            assert boundaries == sorted(set(boundaries))
        assert b"".join(c.data for c in chunker.chunks(data)) == data


@pytest.mark.parametrize("impl", LANES)
class TestSizeDistribution:
    """Chunk-size distribution properties, identical across lanes."""

    def test_size_bounds_respected(self, chunker_lanes, impl):
        data = random_bytes(50_000, seed=2)
        chunker = chunker_lanes[impl](avg_size=256)
        sizes = [len(c) for c in chunker.chunks(data)]
        assert all(s <= chunker.max_size for s in sizes)
        # Every chunk except the last respects the minimum.
        assert all(s >= chunker.min_size for s in sizes[:-1])

    def test_boundaries_strictly_increasing_and_cover(self, chunker_lanes, impl):
        data = random_bytes(40_000, seed=8)
        chunker = chunker_lanes[impl](avg_size=128)
        cuts = chunker.boundaries(data)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert cuts[-1] == len(data)
        chunks = chunker.chunks(data)
        assert chunks[0].start == 0
        assert all(
            a.end == b.start for a, b in zip(chunks, chunks[1:])
        )

    def test_average_size_near_target(self, chunker_lanes, impl):
        data = random_bytes(200_000, seed=4)
        chunker = chunker_lanes[impl](avg_size=256)
        sizes = [len(c) for c in chunker.chunks(data)]
        average = sum(sizes) / len(sizes)
        # Normalized chunking concentrates the distribution around the
        # target; allow generous slack on either side.
        assert 128 < average < 512

    def test_normalization_tightens_spread(self, chunker_lanes, impl):
        # The strict/loose mask pair should keep most cuts inside
        # [min, 2*avg] on random data — the point of normalized chunking.
        data = random_bytes(200_000, seed=9)
        chunker = chunker_lanes[impl](avg_size=256)
        sizes = [len(c) for c in chunker.chunks(data)][:-1]
        inside = sum(1 for s in sizes if s <= 2 * chunker.avg_size)
        assert inside / len(sizes) > 0.9

    def test_text_corpus_mean_near_target(self, chunker_lanes, impl):
        data = TextGenerator(seed=31).document(150_000).encode()
        chunker = chunker_lanes[impl](avg_size=64)
        sizes = [len(c) for c in chunker.chunks(data)]
        average = sum(sizes) / len(sizes)
        assert 32 < average < 128


class TestExactBoundaries:
    """Regression pins: exact boundary lists for crafted inputs.

    These freeze the chunking function itself — any change to the gear
    table, masks, or scan logic shows up as a diff here before it shows
    up as a storage-ratio regression.
    """

    # 255 zero bytes followed by byte 29: the gear hash matches the
    # loose mask at position 256 — exactly where the max_size clamp
    # forces a cut for avg=64 (max=256). The candidate and the forced
    # cut coincide; the chunker must emit the boundary once, not a
    # duplicate or an empty chunk.
    COINCIDENT_BLOCK = b"\x00" * 255 + bytes([29])

    @pytest.mark.parametrize("impl", LANES)
    def test_forced_cut_coincides_with_hash_match(self, chunker_lanes, impl):
        chunker = chunker_lanes[impl](avg_size=64)
        assert chunker.boundaries(self.COINCIDENT_BLOCK) == [256]
        chunks = chunker.chunks(self.COINCIDENT_BLOCK)
        assert [len(c) for c in chunks] == [256]

    @pytest.mark.parametrize("impl", LANES)
    def test_forced_cut_coincidence_mid_stream(self, chunker_lanes, impl):
        data = self.COINCIDENT_BLOCK + random.Random(7).randbytes(400)
        chunker = chunker_lanes[impl](avg_size=64)
        assert chunker.boundaries(data) == [
            256, 326, 404, 493, 569, 607, 656,
        ]

    @pytest.mark.parametrize("impl", LANES)
    def test_pinned_text_boundaries(self, chunker_lanes, impl):
        data = TextGenerator(seed=42).document(3000).encode()
        chunker = chunker_lanes[impl](avg_size=64)
        assert chunker.boundaries(data) == [
            99, 152, 250, 269, 343, 430, 504, 521, 614, 639, 711, 801,
            878, 964, 1036, 1120, 1194, 1238, 1317, 1386, 1454, 1503,
            1630, 1678, 1716, 1786, 1869, 1935, 1968, 2020, 2092, 2190,
            2270, 2338, 2422, 2505, 2575, 2651, 2726, 2827, 2896, 2971,
            3041, 3093, 3123, 3208,
        ]

    @pytest.mark.parametrize("impl", LANES)
    def test_pinned_random_boundaries(self, chunker_lanes, impl):
        data = random.Random(11).randbytes(2000)
        chunker = chunker_lanes[impl](avg_size=64)
        assert chunker.boundaries(data) == [
            36, 105, 148, 239, 306, 378, 451, 520, 587, 654, 699, 779,
            850, 928, 954, 1056, 1123, 1204, 1232, 1302, 1366, 1432,
            1464, 1531, 1614, 1702, 1762, 1865, 1943, 2000,
        ]

    @pytest.mark.parametrize("impl", LANES)
    def test_pinned_random_boundaries_avg256(self, chunker_lanes, impl):
        data = random.Random(11).randbytes(2000)
        chunker = chunker_lanes[impl](avg_size=256)
        assert chunker.boundaries(data) == [
            274, 451, 699, 1155, 1412, 1728, 2000,
        ]


class TestAccounting:
    def test_scalar_lane_counts_scan_and_skip(self):
        # avg=1024 puts min_size (256) well above the 64-byte gear
        # window, so the oracle's skip-ahead has real ground to skip.
        data = random_bytes(30_000, seed=12)
        chunker = ContentDefinedChunker(avg_size=1024)
        cuts, hashed = scalar_boundaries(
            data, chunker.min_size, chunker.avg_size, chunker.max_size
        )
        assert cuts == chunker.boundaries(data)
        # Skip-ahead means the oracle hashes fewer bytes than it covers.
        assert 0 < hashed < len(data)

    def test_vectorized_lane_counts_full_scan(self):
        data = random_bytes(30_000, seed=12)
        chunker = ContentDefinedChunker(avg_size=256)
        chunker.boundaries(data)
        assert chunker.bytes_scanned == len(data)
        chunker.boundaries_many([data[:100], b"", data])
        assert chunker.bytes_scanned == 2 * len(data) + 100
