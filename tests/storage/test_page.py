"""Slotted page layout: inserts, deletes, updates, compaction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.page import PageFullError, SlottedPage


@pytest.fixture()
def page() -> SlottedPage:
    return SlottedPage(page_size=1024)


class TestBasics:
    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            SlottedPage(page_size=32)
        with pytest.raises(ValueError):
            SlottedPage(page_size=1 << 20)

    def test_insert_and_get(self, page):
        slot = page.insert(b"hello")
        assert page.get(slot) == b"hello"
        assert page.live_cells == 1

    def test_multiple_cells(self, page):
        slots = [page.insert(f"cell-{i}".encode()) for i in range(10)]
        for index, slot in enumerate(slots):
            assert page.get(slot) == f"cell-{index}".encode()

    def test_get_bad_slot(self, page):
        with pytest.raises(KeyError):
            page.get(0)
        page.insert(b"x")
        with pytest.raises(KeyError):
            page.get(5)

    def test_empty_cell(self, page):
        slot = page.insert(b"")
        assert page.get(slot) == b""


class TestCapacity:
    def test_page_full(self, page):
        with pytest.raises(PageFullError):
            page.insert(b"z" * 2000)

    def test_fills_to_capacity(self, page):
        inserted = 0
        try:
            while True:
                page.insert(b"y" * 50)
                inserted += 1
        except PageFullError:
            pass
        assert inserted >= (1024 - 6) // 54 - 1

    def test_free_bytes_decrease(self, page):
        before = page.free_bytes
        page.insert(b"x" * 100)
        assert page.free_bytes == before - 104


class TestDelete:
    def test_delete_reclaims_space(self, page):
        slot = page.insert(b"d" * 200)
        free_after_insert = page.free_bytes
        page.delete(slot)
        assert page.free_bytes == free_after_insert + 200
        with pytest.raises(KeyError):
            page.get(slot)

    def test_delete_twice_rejected(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(KeyError):
            page.delete(slot)

    def test_slot_reused_after_delete(self, page):
        slot = page.insert(b"first")
        page.delete(slot)
        assert page.insert(b"second") == slot

    def test_insert_after_fragmentation_compacts(self, page):
        slots = [page.insert(b"f" * 120) for _ in range(8)]
        for slot in slots[::2]:
            page.delete(slot)
        # Contiguous space is small but total free space suffices.
        big = b"G" * 300
        slot = page.insert(big)
        assert page.get(slot) == big
        # Survivors intact after compaction.
        for survivor in slots[1::2]:
            assert page.get(survivor) == b"f" * 120


class TestUpdate:
    def test_shrinking_update_in_place(self, page):
        slot = page.insert(b"long original content")
        assert page.update(slot, b"short")
        assert page.get(slot) == b"short"

    def test_growing_update_within_page(self, page):
        slot = page.insert(b"small")
        assert page.update(slot, b"much larger replacement " * 4)
        assert page.get(slot) == b"much larger replacement " * 4

    def test_update_too_large_returns_false(self, page):
        slot = page.insert(b"x")
        assert not page.update(slot, b"q" * 2000)
        assert page.get(slot) == b"x"  # untouched

    def test_update_dead_slot(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(KeyError):
            page.update(slot, b"y")


class TestSerialization:
    def test_image_roundtrip(self, page):
        slots = {page.insert(f"data-{i}".encode()): f"data-{i}".encode()
                 for i in range(5)}
        restored = SlottedPage(1024, image=page.image())
        for slot, expected in slots.items():
            assert restored.get(slot) == expected

    def test_image_size_mismatch(self):
        with pytest.raises(ValueError):
            SlottedPage(1024, image=b"short")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("iud"), st.integers(0, 9),
                  st.integers(0, 180)),
        max_size=60,
    )
)
def test_property_page_matches_dict_model(ops):
    """Random insert/update/delete against a dict reference model."""
    page = SlottedPage(page_size=2048)
    model: dict[int, bytes] = {}  # handle -> data
    slots: dict[int, int] = {}  # handle -> slot

    for kind, handle, size in ops:
        data = bytes([65 + handle]) * size
        if kind == "i" and handle not in model:
            try:
                slots[handle] = page.insert(data)
                model[handle] = data
            except PageFullError:
                pass
        elif kind == "u" and handle in model:
            if page.update(slots[handle], data):
                model[handle] = data
        elif kind == "d" and handle in model:
            page.delete(slots[handle])
            del model[handle]
            del slots[handle]
        for known, expected in model.items():
            assert page.get(slots[known]) == expected
        assert page.live_cells == len(model)
