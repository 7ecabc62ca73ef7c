"""Regenerate benchmarks/baselines/chunking_microbench.json.

Measures the chunker and its scalar oracle on the same corpus the
microbench uses and rewrites the committed baseline. Run from the repo root::

    PYTHONPATH=src python benchmarks/regen_chunking_baseline.py
"""

import json
import time
from pathlib import Path

from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.scalar import scalar_boundaries
from repro.workloads.text import TextGenerator


def throughput_mb_s(boundaries, data, repeat=5) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        boundaries(data)
        best = min(best, time.perf_counter() - t0)
    return len(data) / best / 1e6


def main() -> None:
    corpus = TextGenerator(seed=77).document(256 * 1024).encode()
    chunker = ContentDefinedChunker(avg_size=64)
    scalar = throughput_mb_s(
        lambda data: scalar_boundaries(
            data, chunker.min_size, chunker.avg_size, chunker.max_size
        ),
        corpus,
    )
    vectorized = throughput_mb_s(chunker.boundaries, corpus)
    baseline = {
        "corpus_bytes": len(corpus),
        "avg_size": 64,
        "scalar_mb_s": round(scalar, 3),
        "vectorized_mb_s": round(vectorized, 3),
        "speedup": round(vectorized / scalar, 2),
    }
    path = Path(__file__).parent / "baselines" / "chunking_microbench.json"
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(baseline, indent=2))


if __name__ == "__main__":
    main()
