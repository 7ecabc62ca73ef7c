"""Classic xDelta encoder: correctness and compression quality."""

import pytest

from repro.delta.decode import apply_delta
from repro.delta.instructions import CopyInst, encoded_size
from repro.delta.xdelta import xdelta_compress


class TestCorrectness:
    def test_empty_target(self):
        assert xdelta_compress(b"source", b"") == []

    def test_empty_source(self):
        delta = xdelta_compress(b"", b"target bytes")
        assert apply_delta(b"", delta) == b"target bytes"

    def test_identical_inputs(self, document):
        delta = xdelta_compress(document, document)
        assert apply_delta(document, delta) == document
        # One big COPY (plus perhaps trivial overhead).
        assert encoded_size(delta) < 64

    def test_revision_pair_roundtrip(self, revision_pair):
        source, target = revision_pair
        delta = xdelta_compress(source, target)
        assert apply_delta(source, delta) == target

    def test_unrelated_inputs_roundtrip(self, rng):
        source = bytes(rng.randrange(256) for _ in range(3000))
        target = bytes(rng.randrange(256) for _ in range(3000))
        delta = xdelta_compress(source, target)
        assert apply_delta(source, delta) == target

    def test_short_inputs(self):
        delta = xdelta_compress(b"ab", b"abc")
        assert apply_delta(b"ab", delta) == b"abc"

    def test_invalid_block_width(self):
        with pytest.raises(ValueError):
            xdelta_compress(b"a" * 100, b"b" * 100, block_width=2)


class TestCompressionQuality:
    def test_small_edit_small_delta(self, revision_pair):
        source, target = revision_pair
        delta = xdelta_compress(source, target)
        # Dispersed small edits must compress far below the raw target.
        assert encoded_size(delta) < len(target) * 0.3

    def test_prepended_content(self, document):
        target = b"NEW HEADER " * 4 + document
        delta = xdelta_compress(document, target)
        assert apply_delta(document, delta) == target
        assert encoded_size(delta) < len(target) * 0.1

    def test_contains_copy_instructions(self, revision_pair):
        source, target = revision_pair
        delta = xdelta_compress(source, target)
        assert any(isinstance(inst, CopyInst) for inst in delta)

    def test_duplicated_source_region(self):
        source = b"A" * 100 + bytes(range(200)) + b"B" * 100
        target = bytes(range(200)) * 2
        delta = xdelta_compress(source, target)
        assert apply_delta(source, delta) == target
        assert encoded_size(delta) < len(target) * 0.5


class TestDeterminism:
    def test_same_inputs_same_delta(self, revision_pair):
        source, target = revision_pair
        assert xdelta_compress(source, target) == xdelta_compress(source, target)
