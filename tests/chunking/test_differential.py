"""Differential fuzzing: the vectorized chunker vs the scalar oracle.

Every test here asserts the chunker is *byte-identical* to
:func:`repro.chunking.scalar.scalar_boundaries` — boundaries, chunks,
and sketches — across adversarial input families:

1. runs of a single byte (degenerate hash states),
2. near-boundary record sizes (min/avg/max edges, off-by-one),
3. records shorter than ``min_size``,
4. random binary,
5. sliced samples of the wikipedia text corpus,

plus a stateful machine checking the CDC resynchronization property:
mutating a prefix only shifts boundaries locally.

On a mismatch the offending input is written to
``$CHUNKING_ARTIFACT_DIR`` (default ``chunking-artifacts/``) so the CI
job can upload the fuzz corpus for replay.
"""

import os
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.scalar import scalar_boundaries
from repro.hashing.gear import WINDOW
from repro.sketch.features import SketchExtractor
from repro.workloads.text import TextGenerator

ARTIFACT_DIR = os.environ.get("CHUNKING_ARTIFACT_DIR", "chunking-artifacts")

#: Size geometries the differential sweep exercises; (avg, min, max) with
#: None meaning the chunker's defaults (avg // 4, avg * 4).
GEOMETRIES = (
    (64, None, None),
    (8, None, None),
    (256, 200, 300),
    (64, 1, 64),
)


def _dump_artifact(family: str, data: bytes, geometry) -> Path:
    """Persist a mismatching input for the CI artifact upload."""
    directory = Path(ARTIFACT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    digest = zlib.crc32(data) & 0xFFFFFFFF
    path = directory / f"diff-{family}-{len(data)}-{digest:08x}.bin"
    path.write_bytes(data)
    (path.with_suffix(".txt")).write_text(
        f"family={family} geometry={geometry} length={len(data)}\n",
        encoding="utf-8",
    )
    return path


def make_chunkers(lanes, geometry):
    """The (scalar oracle, vectorized) chunker pair for one geometry."""
    avg, lo, hi = geometry
    return tuple(
        lanes[lane](avg, min_size=lo, max_size=hi)
        for lane in ("scalar", "vectorized")
    )


def assert_lanes_agree(lanes, family: str, data: bytes, geometry=(64, None, None)):
    """The heart of the suite: scalar oracle ≡ vectorized on one input."""
    scalar, vector = make_chunkers(lanes, geometry)
    scalar_cuts = scalar.boundaries(data)
    vector_cuts = vector.boundaries(data)
    if scalar_cuts != vector_cuts:
        path = _dump_artifact(family, data, geometry)
        raise AssertionError(
            f"lane mismatch on {family} input (saved to {path}): "
            f"scalar={scalar_cuts[:8]}... vectorized={vector_cuts[:8]}..."
        )
    # Guard the adapter: the scalar lane must be the module-level oracle,
    # or this suite would compare the chunker with itself.
    oracle_cuts, _ = scalar_boundaries(
        data, vector.min_size, vector.avg_size, vector.max_size
    )
    assert oracle_cuts == scalar_cuts
    # Chunks carry identical bytes, not just identical offsets.
    assert scalar.chunks(data) == vector.chunks(data)
    return scalar_cuts


def assert_sketches_agree(lanes, data: bytes, geometry=(64, None, None)):
    scalar, vector = make_chunkers(lanes, geometry)
    a = SketchExtractor(chunker=scalar, top_k=8).sketch(data)
    b = SketchExtractor(chunker=vector, top_k=8).sketch(data)
    assert a == b


@pytest.fixture(scope="module")
def wiki_corpus() -> bytes:
    """A deterministic slice-able wikipedia-style text corpus."""
    return TextGenerator(seed=1234).document(120_000).encode()


@pytest.mark.parametrize("geometry", GEOMETRIES)
class TestDifferentialFamilies:
    @settings(max_examples=40)
    @given(byte=st.integers(0, 255), length=st.integers(0, 2200))
    def test_single_byte_runs(self, chunker_lanes, geometry, byte, length):
        data = bytes([byte]) * length
        assert_lanes_agree(chunker_lanes, "run", data, geometry)

    @settings(max_examples=40)
    @given(
        anchor=st.sampled_from(["min", "avg", "max", "2max"]),
        jitter=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_boundary_sizes(self, chunker_lanes, geometry, anchor, jitter, seed):
        scalar, _ = make_chunkers(chunker_lanes, geometry)
        base = {
            "min": scalar.min_size,
            "avg": scalar.avg_size,
            "max": scalar.max_size,
            "2max": 2 * scalar.max_size,
        }[anchor]
        length = max(0, base + jitter)
        data = random.Random(seed).randbytes(length)
        assert_lanes_agree(chunker_lanes, "nearsize", data, geometry)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shorter_than_min_chunk(self, chunker_lanes, geometry, seed):
        scalar, _ = make_chunkers(chunker_lanes, geometry)
        rng = random.Random(seed)
        length = rng.randrange(0, max(1, scalar.min_size))
        data = rng.randbytes(length)
        cuts = assert_lanes_agree(chunker_lanes, "short", data, geometry)
        assert cuts == ([length] if length else [])

    @settings(max_examples=40)
    @given(data=st.binary(min_size=0, max_size=6000))
    def test_random_binary(self, chunker_lanes, geometry, data):
        assert_lanes_agree(chunker_lanes, "binary", data, geometry)
        assert_sketches_agree(chunker_lanes, data, geometry)

    @settings(max_examples=40)
    @given(start=st.integers(0, 110_000), length=st.integers(0, 9000))
    def test_wikipedia_slices(self, chunker_lanes, geometry, start, length, wiki_corpus):
        data = wiki_corpus[start : start + length]
        assert_lanes_agree(chunker_lanes, "wiki", data, geometry)
        assert_sketches_agree(chunker_lanes, data, geometry)


class TestBatchDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=12),
    )
    def test_boundaries_many_matches_both_lanes(self, chunker_lanes, seeds):
        rng = random.Random(99)
        datas = []
        for seed in seeds:
            sub = random.Random(seed)
            kind = sub.randrange(3)
            n = sub.randrange(0, 3000)
            if kind == 0:
                datas.append(bytes([sub.randrange(256)]) * n)
            elif kind == 1:
                datas.append(sub.randbytes(n))
            else:
                datas.append(rng.randbytes(sub.randrange(0, 40)))
        scalar, vector = make_chunkers(chunker_lanes, (64, None, None))
        batch_scalar = scalar.boundaries_many(datas)
        batch_vector = vector.boundaries_many(datas)
        sequential = [vector.boundaries(d) for d in datas]
        assert batch_scalar == batch_vector == sequential

    def test_sketch_many_lane_equivalence(self, chunker_lanes, wiki_corpus):
        datas = [
            wiki_corpus[i : i + 1500] for i in range(0, 30_000, 1500)
        ] + [b"", b"x", wiki_corpus[:10]]
        scalar, vector = make_chunkers(chunker_lanes, (64, None, None))
        a = SketchExtractor(chunker=scalar, top_k=8).sketch_many(datas)
        b = SketchExtractor(chunker=vector, top_k=8).sketch_many(datas)
        assert a == b


class ResyncMachine(RuleBasedStateMachine):
    """CDC resynchronization: prefix edits shift boundaries only locally.

    The machine keeps one evolving document. Every rule mutates a
    position in the document's first half (replace / insert / delete)
    and checks, for the scalar oracle and the chunker:

    * boundaries at or before the edit position are unchanged, and
    * past the edit, boundaries realign with the pre-edit boundaries
      (shifted by the length delta) from the first shared cut onward.
    """

    def __init__(self):
        super().__init__()
        self.chunker = ContentDefinedChunker(64)
        self.text = TextGenerator(seed=777)

    def oracle_boundaries(self, data: bytes) -> list[int]:
        chunker = self.chunker
        cuts, _ = scalar_boundaries(
            data, chunker.min_size, chunker.avg_size, chunker.max_size
        )
        return cuts

    @initialize(seed=st.integers(0, 2**16))
    def seed_document(self, seed):
        self.doc = TextGenerator(seed=seed).document(12_000).encode()

    @rule(
        position=st.floats(0.0, 0.5),
        size=st.integers(1, 200),
        action=st.sampled_from(["replace", "insert", "delete"]),
    )
    def mutate_prefix(self, position, size, action):
        doc = self.doc
        pos = int(len(doc) * position)
        patch = self.text.sentence().encode()[:size]
        if action == "replace":
            new = doc[:pos] + patch + doc[pos + len(patch):]
        elif action == "insert":
            new = doc[:pos] + patch + doc[pos:]
        else:
            new = doc[:pos] + doc[pos + size:]
        edit_end = pos + (0 if action == "delete" else len(patch))
        delta = len(new) - len(doc)
        chunker = self.chunker
        for lane, boundaries in (
            ("scalar", self.oracle_boundaries),
            ("vectorized", chunker.boundaries),
        ):
            before = boundaries(doc)
            after = boundaries(new)
            # Locality, upstream: cuts at or before the edit position
            # depend only on bytes before it.
            assert [c for c in before if c <= pos] == [
                c for c in after if c <= pos
            ]
            # Locality, downstream: the old boundary stream reappears
            # (shifted) once the scan re-locks past the edit.
            shifted = [c + delta for c in before if c + delta > edit_end + WINDOW]
            common = sorted(set(after) & set(shifted))
            runway = len(new) - edit_end
            if runway > 20 * chunker.max_size:
                assert common, (
                    f"no resynchronization within {runway} bytes "
                    f"({lane} lane)"
                )
            if common:
                first = common[0]
                assert [c for c in after if c >= first] == [
                    c for c in shifted if c >= first
                ]
        self.doc = new


ResyncMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=8, deadline=None
)
TestResync = ResyncMachine.TestCase
