"""Automatic dedup governor (§3.4.1): admission control in governor mode."""

import pytest

from repro.core.admission import AdmissionController


def governor(threshold: float = 1.1, window: int = 100_000) -> AdmissionController:
    """The paper's per-database kill switch, with its §3.4.1 defaults."""
    return AdmissionController(mode="governor", threshold=threshold, window=window)


class TestGovernor:
    def test_enabled_by_default(self):
        gov = governor()
        assert gov.is_enabled("anything")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            governor(threshold=0.5)
        with pytest.raises(ValueError):
            governor(window=0)

    def test_disables_low_ratio_database(self):
        gov = governor(threshold=1.1, window=10)
        for _ in range(10):
            gov.observe("flat", bytes_in=100, bytes_out=100)
        assert not gov.is_enabled("flat")
        assert "flat" in gov.disabled_databases

    def test_keeps_compressing_database(self):
        gov = governor(threshold=1.1, window=10)
        for _ in range(25):
            assert gov.observe("good", bytes_in=100, bytes_out=10)
        assert gov.is_enabled("good")

    def test_window_resets_after_healthy_evaluation(self):
        gov = governor(threshold=1.1, window=5)
        for _ in range(5):
            gov.observe("db", 100, 10)
        # New window starts clean.
        assert gov.window_ratio("db") == 1.0

    def test_never_reenabled(self):
        gov = governor(threshold=1.1, window=5)
        for _ in range(5):
            gov.observe("db", 100, 100)
        assert not gov.is_enabled("db")
        # Later great ratios change nothing (§3.4.1).
        for _ in range(20):
            assert not gov.observe("db", 100, 1)
        assert not gov.is_enabled("db")

    def test_databases_isolated(self):
        gov = governor(threshold=1.1, window=5)
        for _ in range(5):
            gov.observe("bad", 100, 100)
            gov.observe("good", 100, 10)
        assert not gov.is_enabled("bad")
        assert gov.is_enabled("good")

    def test_threshold_boundary(self):
        gov = governor(threshold=1.1, window=4)
        # Exactly 1.1 stays enabled (disable requires ratio < threshold).
        for _ in range(4):
            gov.observe("edge", 110, 100)
        assert gov.is_enabled("edge")

    def test_window_ratio_reporting(self):
        gov = governor(window=100)
        gov.observe("db", 200, 50)
        assert gov.window_ratio("db") == pytest.approx(4.0)
        assert gov.window_ratio("unknown") == 1.0
