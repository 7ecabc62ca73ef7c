"""Full-report generation (tiny scale for the unit suite)."""

import pytest

from repro.bench.full_report import write_report


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The report built once, written to disk: ``(path, size, text)``."""
    path = tmp_path_factory.mktemp("report") / "out.md"
    size = write_report(path, target_bytes=120_000)
    return path, size, path.read_text()


class TestFullReport:
    def test_report_contains_every_section(self, report):
        _, _, text = report
        for title in (
            "Fig. 1", "Table 2", "Fig. 7", "Fig. 10", "Fig. 11",
            "Fig. 12", "Fig. 13a", "Fig. 13b", "Fig. 14", "Fig. 15",
            "Ablation", "Scale sensitivity",
        ):
            assert title in text

    def test_write_report(self, report):
        path, size, text = report
        assert path.stat().st_size == size
        assert text.startswith("# dbDedup")
