"""Tiny-scale smoke tests of every experiment function.

The real shape assertions live in ``benchmarks/``; these only guarantee
the harness itself stays runnable and returns well-formed results at the
smallest viable scale, so a broken experiment fails fast in the unit suite.
"""

from repro.bench import experiments as E
from repro.bench import ablations as A

TINY = 120_000


class TestFigureFunctions:
    def test_fig10_rows_complete(self):
        result = E.fig10("enron", target_bytes=TINY)
        assert {row.config for row in result.rows} == {
            "dbDedup-1KB", "dbDedup-64B", "trad-dedup-4KB", "trad-dedup-64B",
            "Snappy",
        }
        assert all(row.dedup_ratio >= 1.0 for row in result.rows)
        assert "enron" in result.render()

    def test_fig07_returns_cdfs(self):
        result = E.fig07("enron", target_bytes=TINY)
        assert result.count_cdf and result.saving_cdf
        assert 0.0 <= result.top60_saving_share <= 1.0

    def test_fig11_all_workloads(self):
        result = E.fig11(workloads=("enron",), target_bytes=TINY)
        assert len(result.rows) == 1
        assert result.rows[0].normalized_storage <= 1.05

    def test_fig12_structure(self):
        result = E.fig12(workloads=("enron",), target_bytes=TINY)
        assert len(result.rows) == 3
        row = result.row("enron", "dbdedup")
        assert row.throughput_ops > 0
        assert row.p999_latency_s >= row.p50_latency_s

    def test_fig13a_includes_no_cache_point(self):
        result = E.fig13a(rewards=(0, 2), target_bytes=TINY)
        labels = [row.label for row in result.rows]
        assert labels == ["no-cache", "0", "2"]
        assert result.rows[0].cache_miss_ratio == 1.0

    def test_fig13b_timelines_nonempty(self):
        result = E.fig13b(target_bytes=TINY)
        assert result.with_cache and result.without_cache

    def test_fig14_tiny_chain(self):
        result = E.fig14(hop_distances=(4,), revisions=24)
        assert result.backward_retrievals == 23
        assert len(result.rows) == 2

    def test_fig15_labels(self):
        result = E.fig15(anchor_intervals=(64,), pair_count=3, body_bytes=3000)
        assert [row.label for row in result.rows] == ["xDelta", "anchor-64"]
        assert all(row.compression_ratio > 1 for row in result.rows)

    def test_table2_render(self):
        text = E.table2(chain_length=50, hop_distance=4).render()
        assert "backward" in text and "hop" in text


class TestAblationFunctions:
    def test_sketch_sweep_structure(self):
        result = A.sketch_sweep("enron", chunk_sizes=(256,), top_ks=(8,),
                                target_bytes=TINY)
        assert result.row(256, 8).compression_ratio >= 1.0

    def test_encoding_sweep_structure(self):
        result = A.encoding_sweep(workloads=("enron",),
                                  encodings=("forward", "hop"),
                                  target_bytes=TINY)
        assert result.row("enron", "forward").worst_decode == 0

    def test_writeback_sweep_structure(self):
        result = A.writeback_capacity_sweep(capacities=(1024, 8 << 20),
                                            target_bytes=TINY)
        assert len(result.rows) == 2

    def test_network_stack_structure(self):
        result = A.network_stack_ablation(target_bytes=TINY)
        assert result.row("original").network_ratio <= result.row("dbDedup").network_ratio


class TestPipelineProfile:
    def test_pipeline_profile_structure(self):
        from repro.bench.pipeline_profile import pipeline_profile

        result = pipeline_profile("enron", target_bytes=TINY, batch_size=16)
        stages = [row.stage for row in result.rows]
        assert stages[0] == "admission_gate" and stages[-1] == "accounting"
        accounting = result.rows[-1]
        assert accounting.records_in == result.records_seen
        assert accounting.records_out == result.records_seen
        for row in result.rows:
            assert row.records_in == row.records_out + row.drops
        rendered = result.render()
        assert "drop reasons:" in rendered and "speedup:" in rendered
