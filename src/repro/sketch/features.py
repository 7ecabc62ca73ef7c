"""Top-K consistent-sampling similarity sketch (§3.1.1).

A record's sketch is the K largest MurmurHash values of its
content-defined (gear) chunks.
Consistent sampling (always keep the top-K by magnitude) characterizes
similarity better than random sampling: two records that share content tend
to share chunks, and the *same* shared chunks survive the magnitude cut in
both records. Two records are deemed similar if their sketches intersect.

Indexing at most K features per record is what bounds dbDedup's index
memory regardless of chunk size — the property Fig. 1/10 turn on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chunking.cdc import ContentDefinedChunker
from repro.hashing.murmur import murmur3_32

#: Paper default: "We find K = 8 strikes a reasonable trade-off between
#: compression ratio and memory usage."
DEFAULT_TOP_K = 8


@dataclass(frozen=True)
class FeatureSketch:
    """Similarity sketch of one record.

    Attributes:
        features: up to K chunk hashes, sorted descending by magnitude.
        chunk_count: how many chunks the record produced (before sampling).
    """

    features: tuple[int, ...]
    chunk_count: int

    def shares_feature_with(self, other: "FeatureSketch") -> bool:
        """True if the two sketches have at least one feature in common."""
        return bool(set(self.features) & set(other.features))


class SketchExtractor:
    """Extract :class:`FeatureSketch` objects from raw record bytes.

    Args:
        chunker: content-defined chunker controlling feature granularity.
            Smaller average chunks → finer similarity detection at the same
            index budget (K entries per record).
        top_k: sketch size K.
        seed: MurmurHash seed; all cooperating nodes must agree on it.
    """

    def __init__(
        self,
        chunker: ContentDefinedChunker | None = None,
        top_k: int = DEFAULT_TOP_K,
        seed: int = 0x5EED,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.chunker = chunker if chunker is not None else ContentDefinedChunker()
        self.top_k = top_k
        self.seed = seed

    def sketch(self, data: bytes) -> FeatureSketch:
        """Chunk ``data``, hash each chunk, keep the K largest hashes.

        Duplicate hash values within one record are collapsed — a record
        full of one repeated chunk yields a single feature, which is the
        behaviour that makes sketch intersection meaningful.
        """
        return self._from_boundaries(data, self.chunker.boundaries(data))

    def sketch_many(self, datas: list[bytes]) -> list[FeatureSketch]:
        """Sketch a whole batch of records, amortizing the chunking pass.

        Returns exactly ``[self.sketch(d) for d in datas]`` — same chunk
        boundaries, same features — but the gear boundary sweep runs once
        over the concatenated batch
        (:meth:`~repro.chunking.cdc.ContentDefinedChunker.boundaries_many`),
        which is markedly cheaper than per-record sweeps when records are
        small relative to numpy's fixed per-call overhead.
        """
        return [
            self._from_boundaries(data, cuts)
            for data, cuts in zip(datas, self.chunker.boundaries_many(datas))
        ]

    def _from_boundaries(self, data: bytes, cuts: list[int]) -> FeatureSketch:
        """Top-K murmur features over the chunks the cut list describes."""
        start = 0
        hashes = set()
        for end in cuts:
            hashes.add(murmur3_32(data[start:end], self.seed))
            start = end
        top = sorted(hashes, reverse=True)[: self.top_k]
        return FeatureSketch(features=tuple(top), chunk_count=len(cuts))
