"""Similarity sketch: consistent sampling properties."""

import pytest

from repro.chunking.cdc import ContentDefinedChunker
from repro.sketch.features import FeatureSketch, SketchExtractor


@pytest.fixture()
def extractor() -> SketchExtractor:
    return SketchExtractor(chunker=ContentDefinedChunker(avg_size=64), top_k=8)


class TestSketchExtraction:
    def test_at_most_k_features(self, extractor, document):
        sketch = extractor.sketch(document)
        assert 1 <= len(sketch.features) <= 8

    def test_features_sorted_descending(self, extractor, document):
        features = extractor.sketch(document).features
        assert list(features) == sorted(features, reverse=True)

    def test_deterministic(self, extractor, document):
        assert extractor.sketch(document) == extractor.sketch(document)

    def test_small_record_fewer_chunks_than_k(self, extractor):
        sketch = extractor.sketch(b"tiny record")
        assert 1 <= len(sketch.features) <= 8
        assert sketch.chunk_count >= 1

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            SketchExtractor(top_k=0)

    def test_repeated_content_collapses(self, extractor):
        # A record of one repeated block yields few distinct features.
        sketch = extractor.sketch(b"Z" * 4096)
        assert len(set(sketch.features)) == len(sketch.features)


class TestSimilarityDetection:
    def test_revisions_share_features(self, extractor, revision_pair):
        source, target = revision_pair
        assert extractor.sketch(source).shares_feature_with(
            extractor.sketch(target)
        )

    def test_unrelated_records_do_not_share(self, extractor, text_gen):
        a = extractor.sketch(text_gen.document(4000).encode())
        b = extractor.sketch(text_gen.document(4000).encode())
        assert not a.shares_feature_with(b)

    def test_chain_of_revisions_all_similar_to_neighbors(
        self, extractor, revision_chain
    ):
        sketches = [extractor.sketch(revision) for revision in revision_chain]
        for previous, current in zip(sketches, sketches[1:]):
            assert previous.shares_feature_with(current)

    def test_shares_feature_is_symmetric(self, extractor, revision_pair):
        source, target = revision_pair
        a = extractor.sketch(source)
        b = extractor.sketch(target)
        assert a.shares_feature_with(b) == b.shares_feature_with(a)

    def test_empty_sketch_shares_nothing(self):
        empty = FeatureSketch(features=(), chunk_count=0)
        other = FeatureSketch(features=(1, 2), chunk_count=2)
        assert not empty.shares_feature_with(other)


class TestLaneEquivalence:
    """Sketches from the scalar oracle's boundaries match the chunker's."""

    @pytest.mark.parametrize("impl", ["scalar", "vectorized"])
    def test_lane_matches_auto(self, chunker_lanes, impl, document):
        auto = SketchExtractor(chunker=ContentDefinedChunker(avg_size=64), top_k=8)
        lane = SketchExtractor(chunker=chunker_lanes[impl](avg_size=64), top_k=8)
        assert lane.sketch(document) == auto.sketch(document)

    def test_sketch_many_matches_sequential(self, text_gen):
        docs = [text_gen.document(2000).encode() for _ in range(6)] + [b""]
        extractor = SketchExtractor(
            chunker=ContentDefinedChunker(avg_size=64), top_k=8
        )
        assert extractor.sketch_many(docs) == [
            extractor.sketch(d) for d in docs
        ]


class TestSeedIsolation:
    def test_different_seeds_different_features(self, document):
        a = SketchExtractor(seed=1).sketch(document)
        b = SketchExtractor(seed=2).sketch(document)
        assert a.features != b.features

    def test_same_seed_same_features(self, document):
        a = SketchExtractor(seed=3).sketch(document)
        b = SketchExtractor(seed=3).sketch(document)
        assert a.features == b.features
