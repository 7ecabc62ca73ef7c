"""Scalar CDC oracle: the byte-at-a-time differential-testing reference.

This module is the *reference* implementation of normalized gear-hash
chunking, used only by tests. The vectorized chunker in
:mod:`repro.chunking.cdc` must produce byte-identical boundaries on
every input; the differential fuzz suite
(``tests/chunking/test_differential.py``) enforces that, and
``tools/check_api_boundary.py`` freezes this module's public surface to
exactly :func:`scalar_boundaries` so the oracle cannot silently grow
behaviour the fuzz suite does not cross-check.

The cut rule (shared with the vectorized chunker, re-derived independently
here on purpose):

* a chunk never ends before ``min_size`` bytes — the scan *skips ahead*
  to the first candidate position, rolling only the 64 warm-up bytes the
  gear hash needs (see :data:`repro.hashing.gear.WINDOW`);
* between ``min_size`` and ``avg_size`` a boundary needs the hash's low
  ``log2(avg_size) + 2`` bits to be zero (the *strict* mask — cuts here
  are rarer than 1-in-avg, tightening the left tail);
* past ``avg_size`` the requirement drops to ``log2(avg_size) - 2`` low
  zero bits (the *loose* mask — overdue chunks cut quickly, tightening
  the right tail). This is FastCDC-style normalized chunking;
* at ``max_size`` the cut is forced. A hash match landing exactly on the
  forced position emits one boundary, not two.
"""

from __future__ import annotations

from repro.hashing.gear import GEAR, WINDOW

_MASK64 = (1 << 64) - 1


def scalar_boundaries(
    data: bytes,
    min_size: int,
    avg_size: int,
    max_size: int,
    table: tuple[int, ...] = GEAR,
) -> tuple[list[int], int]:
    """Chunk end offsets of ``data`` under normalized gear-hash chunking.

    Args:
        data: the record content.
        min_size / avg_size / max_size: chunk-size bounds; ``avg_size``
            must be a power of two ``>= 8`` (the masks take ``log2`` of
            it), with ``0 < min_size <= avg_size <= max_size``.
        table: 256-entry gear table (the chunker and this oracle must
            agree on it).

    Returns:
        ``(boundaries, bytes_hashed)``: ascending cut offsets whose final
        element is ``len(data)`` (empty for empty input), and how many
        bytes the scan actually pushed through the hash — the skip-ahead
        savings are ``len(data) - bytes_hashed`` when positive.
    """
    bits = avg_size.bit_length() - 1
    strict_mask = (1 << min(bits + 2, 63)) - 1
    loose_mask = (1 << max(bits - 2, 1)) - 1

    n = len(data)
    cuts: list[int] = []
    start = 0
    hashed = 0
    while n - start > min_size:
        hi = min(start + max_size, n)
        normal = start + avg_size
        first = start + min_size
        # Skip ahead: positions below ``first`` can never cut, and the
        # hash only needs WINDOW bytes of warm-up before the first
        # candidate. Restarting from zero is exact — older contributions
        # would have shifted out of the 64-bit accumulator anyway.
        scan_from = max(0, first - WINDOW)
        value = 0
        cut = hi
        position = scan_from
        while position < hi:
            value = ((value << 1) + table[data[position]]) & _MASK64
            position += 1
            if position < first:
                continue
            mask = strict_mask if position <= normal else loose_mask
            if value & mask == 0:
                cut = position
                break
        hashed += position - scan_from
        cuts.append(cut)
        start = cut
    if start < n:
        cuts.append(n)
    return cuts, hashed
