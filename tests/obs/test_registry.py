"""Metrics registry: instruments, labels, collectors, snapshots."""

import math

import pytest

from repro.obs.registry import (
    BYTE_BUCKETS,
    LATENCY_BUCKETS_S,
    OP_LATENCY_BUCKETS_S,
    SLO_EVENTS_FAMILY,
    MetricsRegistry,
    slo_events_family,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("ops_total", "operations")
        assert reg.total("ops_total") == 0
        counter.inc()
        counter.inc(4)
        assert reg.total("ops_total") == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("x_total", "x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        first = reg.counter("ops_total", "operations")
        second = reg.counter("ops_total", "operations")
        assert first is second

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "operations")
        with pytest.raises(ValueError):
            reg.gauge("ops_total", "operations")

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "operations", ("node",))
        with pytest.raises(ValueError):
            reg.counter("ops_total", "operations", ("scope",))


class TestLabels:
    def test_children_are_independent(self):
        reg = MetricsRegistry()
        family = reg.counter("ops_total", "operations", ("node",))
        family.labels("primary").inc(3)
        family.labels("secondary0").inc(1)
        assert reg.value("ops_total", "primary") == 3
        assert reg.value("ops_total", "secondary0") == 1
        assert reg.total("ops_total") == 4

    def test_same_labels_same_child(self):
        family = MetricsRegistry().counter("x_total", "x", ("a", "b"))
        assert family.labels("1", "2") is family.labels("1", "2")

    def test_wrong_label_arity_rejected(self):
        family = MetricsRegistry().counter("x_total", "x", ("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth", "queue depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert reg.value("depth") == 12

    def test_can_go_negative(self):
        gauge = MetricsRegistry().gauge("delta", "net delta")
        gauge.dec(7)
        assert gauge.labels().value == -7


class TestHistogram:
    def test_observations_land_in_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("record_bytes", "sizes", buckets=(10, 100))
        for value in (5, 50, 500):
            hist.observe(value)
        snapshot = hist.snapshot()["values"][0]
        assert snapshot["bucket_counts"] == [1, 1, 1]
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 555

    def test_boundary_value_goes_in_lower_bucket(self):
        hist = MetricsRegistry().histogram("h", "h", buckets=(10,))
        hist.observe(10)
        assert hist.snapshot()["values"][0]["bucket_counts"] == [1, 0]

    def test_default_bucket_ladders_are_sorted(self):
        assert list(BYTE_BUCKETS) == sorted(BYTE_BUCKETS)
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)

    def test_histogram_rejects_collectors(self):
        hist = MetricsRegistry().histogram("h", "h", buckets=(10,))
        with pytest.raises(ValueError):
            hist.collect(lambda: {})


class TestCollectors:
    def test_collector_values_appear_at_read_time(self):
        reg = MetricsRegistry()
        native = {"count": 0}
        reg.counter("native_total", "external counter").collect(
            lambda: {(): native["count"]}
        )
        native["count"] = 42
        assert reg.total("native_total") == 42

    def test_collector_shadows_direct_child(self):
        reg = MetricsRegistry()
        family = reg.counter("x_total", "x")
        family.inc(5)
        family.collect(lambda: {(): 99})
        assert reg.total("x_total") == 99

    def test_later_collector_wins_per_key(self):
        reg = MetricsRegistry()
        family = reg.counter("x_total", "x", ("node",))
        family.collect(lambda: {("a",): 1})
        family.collect(lambda: {("a",): 2})
        assert reg.value("x_total", "a") == 2


class TestSnapshot:
    def test_snapshot_is_plain_data(self):
        import json

        reg = MetricsRegistry()
        reg.counter("ops_total", "operations", ("node",)).labels("p").inc(2)
        reg.gauge("depth", "queue depth").set(1)
        reg.histogram("h", "sizes", buckets=(10,)).observe(3)
        snapshot = reg.snapshot()
        json.dumps(snapshot)  # must be JSON-serializable as-is
        assert snapshot["ops_total"]["kind"] == "counter"
        assert snapshot["ops_total"]["values"][0]["labels"] == {"node": "p"}

    def test_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zz_total", "z")
        reg.counter("aa_total", "a")
        assert [f.name for f in reg.families()] == ["aa_total", "zz_total"]


class TestOpLatencyInstruments:
    def test_op_latency_buckets_cover_microseconds_to_seconds(self):
        assert OP_LATENCY_BUCKETS_S[0] == pytest.approx(1e-6)
        assert OP_LATENCY_BUCKETS_S[-1] == 100.0
        assert list(OP_LATENCY_BUCKETS_S) == sorted(OP_LATENCY_BUCKETS_S)

    def test_histogram_quantile_delegates(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "op_latency_seconds", "latency", buckets=(0.001, 0.01, 0.1)
        )
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(0.05)
        assert 0.001 < hist.quantile(0.5) <= 0.01
        assert 0.01 < hist.quantile(0.999) <= 0.1

    def test_histogram_quantile_overflow_is_inf(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_seconds", "h", buckets=(1.0,))
        hist.observe(5.0)
        assert math.isinf(hist.quantile(0.99))

    def test_slo_events_family_is_shared(self):
        reg = MetricsRegistry()
        first = slo_events_family(reg)
        second = slo_events_family(reg)
        assert first is second
        first.labels("admission_defer", "oltp").inc()
        assert reg.total(SLO_EVENTS_FAMILY) == 1

    def test_slo_events_labels(self):
        reg = MetricsRegistry()
        family = slo_events_family(reg)
        family.labels("failover_stall", "wiki").inc(3)
        ((key, value),) = family.items()
        assert key == ("failover_stall", "wiki")
        assert value == 3



def _installer(reg, value, runs=None, name="x_total", kind="counter",
               labels=("node",), key=("a",)):
    """An installer feeding ``{key: value}`` into one family."""
    def install():
        if runs is not None:
            runs.append(value)
        yield getattr(reg, kind)(name, "x", labels), lambda: {key: value}
    return install


class TestBind:
    """Deferred, slot-keyed collector installers."""

    @pytest.mark.parametrize("read", [
        lambda reg: reg.get("x_total"),
        lambda reg: reg.families(),
        lambda reg: reg.snapshot(),
        lambda reg: reg.total("x_total"),
        lambda reg: reg.value("x_total", "a"),
    ], ids=["get", "families", "snapshot", "total", "value"])
    def test_installer_runs_once_on_first_read(self, read):
        reg = MetricsRegistry()
        runs = []
        reg.bind("slot", _installer(reg, 1, runs))
        assert runs == []
        read(reg)
        read(reg)
        reg.snapshot()
        assert runs == [1]
        assert reg.value("x_total", "a") == 1

    def test_rebind_before_read_runs_only_latest(self):
        reg = MetricsRegistry()
        runs = []
        reg.bind("slot", _installer(reg, 1, runs))
        reg.bind("slot", _installer(reg, 2, runs))
        assert reg.value("x_total", "a") == 2
        assert runs == [2]
        assert len(reg.get("x_total")._collectors) == 1

    def test_rebind_after_read_replaces_only_that_slot(self):
        reg = MetricsRegistry()
        runs = []
        reg.bind("one", _installer(reg, 1, runs))
        reg.bind("other", _installer(reg, 5, runs, name="y_total"))
        assert reg.value("x_total", "a") == 1
        reg.bind("one", _installer(reg, 2, runs))
        assert reg.value("x_total", "a") == 2
        assert reg.value("y_total", "a") == 5
        assert runs == [1, 5, 2]
        assert len(reg.get("x_total")._collectors) == 1
        assert len(reg.get("y_total")._collectors) == 1

    def test_rebind_drops_rows_only_the_old_generation_reported(self):
        reg = MetricsRegistry()
        reg.bind("slot", _installer(reg, 1, key=("gone",)))
        assert reg.value("x_total", "gone") == 1
        reg.bind("slot", _installer(reg, 2))
        assert reg.get("x_total").items() == [(("a",), 2.0)]

    def test_slots_feeding_one_family_coexist(self):
        reg = MetricsRegistry()
        reg.bind("node p", _installer(reg, 3, key=("p",)))
        reg.bind("node s", _installer(reg, 4, key=("s",)))
        assert reg.get("x_total").items() == [(("p",), 3.0), (("s",), 4.0)]

    def test_kind_mismatch_raises_at_first_read(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("node",))
        reg.bind("slot", _installer(reg, 1, kind="gauge"))
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.snapshot()

    def test_label_mismatch_raises_at_first_read(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("node",))
        reg.bind("slot", _installer(reg, 1, labels=("scope",)))
        with pytest.raises(ValueError, match="already registered with labels"):
            reg.total("x_total")
        # The conflict stays pending: every later read re-raises it.
        with pytest.raises(ValueError):
            reg.families()
