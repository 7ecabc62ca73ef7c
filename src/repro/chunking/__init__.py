"""Record chunking: content-defined (normalized gear) and fixed-size.

The content-defined chunker is a numpy-vectorized bulk sweep; a scalar
byte-at-a-time oracle (:mod:`repro.chunking.scalar`) with byte-identical
boundaries is kept for differential testing.
"""

from repro.chunking.cdc import (
    Chunk,
    ContentDefinedChunker,
    normalized_masks,
)
from repro.chunking.fixed import FixedSizeChunker

__all__ = [
    "Chunk",
    "ContentDefinedChunker",
    "FixedSizeChunker",
    "normalized_masks",
]
