"""Shared fixtures: realistic record pairs and corpora for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.scalar import scalar_boundaries
from repro.workloads.edits import revise
from repro.workloads.text import TextGenerator


@pytest.fixture(scope="session")
def text_gen() -> TextGenerator:
    return TextGenerator(seed=99)


@pytest.fixture(scope="session")
def document(text_gen) -> bytes:
    """One ~8 KB synthetic document."""
    return text_gen.document(8000).encode()


@pytest.fixture(scope="session")
def revision_pair(text_gen) -> tuple[bytes, bytes]:
    """A (source, target) pair shaped like consecutive record versions."""
    rng = random.Random(42)
    base = text_gen.document(8000)
    target = revise(rng, text_gen, base, num_edits=5)
    return base.encode(), target.encode()


@pytest.fixture(scope="session")
def revision_chain(text_gen) -> list[bytes]:
    """Twelve consecutive revisions of one document."""
    rng = random.Random(43)
    body = text_gen.document(5000)
    chain = [body.encode()]
    for _ in range(11):
        body = revise(rng, text_gen, body, num_edits=3)
        chain.append(body.encode())
    return chain


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(7)


class OracleChunker(ContentDefinedChunker):
    """The chunker's surface with every boundary from the scalar oracle.

    Geometry validation and ``chunks()`` are the chunker's own; the cut
    lists come from :func:`repro.chunking.scalar.scalar_boundaries`,
    record by record, so tests can hold the production chunker (and the
    sketches built on it) byte-identical to the reference.
    """

    def boundaries(self, data: bytes) -> list[int]:
        cuts, _ = scalar_boundaries(data, self.min_size, self.avg_size, self.max_size)
        return cuts

    def boundaries_many(self, datas: list[bytes]) -> list[list[int]]:
        return [self.boundaries(data) for data in datas]


@pytest.fixture(scope="session")
def chunker_lanes() -> dict[str, type[ContentDefinedChunker]]:
    """Chunker classes by lane: the scalar oracle and the production chunker."""
    return {"scalar": OracleChunker, "vectorized": ContentDefinedChunker}
