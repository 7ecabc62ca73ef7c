"""Traditional chunk-based exact deduplication (§2.2, the trad-dedup bars).

The classic backup-system design, implemented the way the paper implemented
it inside MongoDB for comparison: each record is content-defined chunked,
every chunk is identified by its SHA-1 digest, and a *global* index of all
digests detects exact duplicates. Duplicate chunks store a 20-byte reference in the
record recipe instead of their bytes.

Its two failure modes on database workloads are exactly what Fig. 1/10
show: at backup-style chunk sizes (4 KB) the small dispersed duplicate
regions of database records are invisible, and at small chunk sizes (64 B)
the full-index memory explodes (24 bytes per unique chunk, vs dbDedup's
≤ K entries per record).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chunking.cdc import ContentDefinedChunker
from repro.index.exact import ExactChunkIndex

#: Recipe cost per duplicate chunk: a 20-byte digest reference.
RECIPE_REF_BYTES = 20


@dataclass
class TradDedupStats:
    """Byte accounting for the exact-dedup baseline."""

    records: int = 0
    bytes_in: int = 0
    chunks_seen: int = 0
    chunks_duplicate: int = 0
    stored_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """Original bytes over stored bytes (1.0 = no compression)."""
        return self.bytes_in / self.stored_bytes if self.stored_bytes else 1.0

    @property
    def duplicate_chunk_ratio(self) -> float:
        """Fraction of observed chunks that were duplicates."""
        return self.chunks_duplicate / self.chunks_seen if self.chunks_seen else 0.0


class TradDedupEngine:
    """Exact chunk-based dedup over a stream of records.

    Args:
        chunk_size: average CDC chunk size (the paper evaluates 4 KB —
            the backup-industry norm — and 64 B).
    """

    def __init__(self, chunk_size: int = 4096) -> None:
        self.chunker = ContentDefinedChunker(avg_size=chunk_size)
        self.index = ExactChunkIndex()
        self.stats = TradDedupStats()

    @property
    def index_memory_bytes(self) -> int:
        """Index memory at 24 bytes per unique chunk."""
        return self.index.memory_bytes

    def ingest(self, content: bytes) -> int:
        """Dedup one record; returns its stored (post-dedup) size."""
        stored = 0
        self.stats.records += 1
        self.stats.bytes_in += len(content)
        for chunk in self.chunker.chunks(content):
            self.stats.chunks_seen += 1
            if self.index.observe(chunk.data):
                self.stats.chunks_duplicate += 1
                stored += RECIPE_REF_BYTES
            else:
                stored += len(chunk.data)
        self.stats.stored_bytes += stored
        return stored

    def ingest_all(self, contents) -> TradDedupStats:
        """Dedup a whole record stream; returns the accumulated stats."""
        for content in contents:
            self.ingest(content)
        return self.stats
