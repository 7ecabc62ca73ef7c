"""Labeled metric instruments and the registry that owns them.

The design follows the Prometheus client model, cut down to what the
simulator needs:

* an *instrument family* is a named metric with a fixed label-name tuple
  (``dedup_records_seen_total{scope=...}``);
* :meth:`InstrumentFamily.labels` returns a *child* — a tiny object
  holding one float — which hot paths cache and bump directly, so one
  increment is an attribute access plus a float add;
* families can additionally register *collector callbacks* that produce
  ``{label_values: value}`` lazily at snapshot time, which is how
  components with existing native counters (caches, disks, the network)
  are exported without paying anything on their hot paths;
* components do not register collectors themselves: each *binds* an
  installer to its slot (:meth:`MetricsRegistry.bind`), and the registry
  runs pending installers only when something first reads it, so
  building a cluster costs O(components), not O(families).

Everything snapshots to plain dicts; see :mod:`repro.obs.export` for the
Prometheus/JSON serializations.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Mapping

from repro.util.stats import histogram_quantile

#: Exponential byte-size buckets (powers of four from 64 B to 256 MB).
BYTE_BUCKETS: tuple[float, ...] = tuple(64 * 4**k for k in range(12))

#: Exponential latency buckets (decades from 1 µs to 100 s).
LATENCY_BUCKETS_S: tuple[float, ...] = tuple(10.0**k for k in range(-6, 3))

#: Fine-grained latency buckets for per-operation tail estimation: a
#: 1-2-5 series from 1 µs to 100 s (25 buckets). The decade-wide
#: :data:`LATENCY_BUCKETS_S` are fine for coarse attribution but far too
#: wide for interpolated p99/p999 estimates; three buckets per decade
#: keep the worst-case interpolation error within a factor of ~2.5 of
#: the true quantile.
OP_LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    mantissa * 10.0**exponent
    for exponent in range(-6, 2)
    for mantissa in (1.0, 2.0, 5.0)
) + (100.0,)

#: Family name of the first-class SLO event counter (see
#: :func:`slo_events_family`).
SLO_EVENTS_FAMILY = "slo_events_total"

#: Label names of the SLO event family: the event kind
#: (``admission_defer`` / ``backpressure_stall`` / ``failover_stall``)
#: and the tenant (stream/database) that experienced it.
SLO_EVENT_LABELS: tuple[str, ...] = ("event", "tenant")

#: Instrument kinds understood by the registry and the exporters.
KINDS = ("counter", "gauge", "histogram")


class Counter:
    """Monotonically increasing value (one labeled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value that can move in both directions."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= amount


class Histogram:
    """Fixed-bucket distribution: counts per ``le`` bound, plus sum/count.

    ``bounds`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Interpolated ``q`` quantile (0–1) of the recorded distribution.

        Delegates to :func:`repro.util.stats.histogram_quantile`: linear
        interpolation within the target bucket, ``math.inf`` when the
        rank lands in the overflow bucket, ``ValueError`` when empty.
        """
        return histogram_quantile(self.bounds, self.bucket_counts, q)


#: A collector produces lazily evaluated values for a family:
#: ``{label_values_tuple: scalar}``.
CollectorFn = Callable[[], Mapping[tuple[str, ...], float]]


class InstrumentFamily:
    """One named metric with a fixed label-name tuple and many children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = BYTE_BUCKETS,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown instrument kind {kind!r}")
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._collectors: list[CollectorFn] = []

    def labels(self, *values: str) -> Counter | Gauge | Histogram:
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"values {self.label_names}, got {values!r}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.buckets)
            self._children[key] = child
        return child

    # Zero/implicit-label conveniences: family delegates to labels().

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled child (labels must be empty)."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Set the unlabeled gauge child."""
        self.labels().set(value)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the unlabeled gauge child."""
        self.labels().dec(amount)

    def observe(self, value: float) -> None:
        """Observe into the unlabeled histogram child."""
        self.labels().observe(value)

    def quantile(self, q: float) -> float:
        """Interpolated quantile of the unlabeled histogram child."""
        return self.labels().quantile(q)

    def collect(self, fn: CollectorFn) -> None:
        """Register a lazy collector evaluated at snapshot time.

        The callback returns ``{label_values: value}``; values from
        collectors shadow direct children with the same label values, so a
        family should be fed by one mechanism or the other, not both.
        Histogram families do not support collectors.
        """
        if self.kind == "histogram":
            raise ValueError(f"{self.name}: histograms cannot use collectors")
        self._collectors.append(fn)

    def items(self) -> list[tuple[tuple[str, ...], float]]:
        """``(label_values, scalar)`` pairs for counter/gauge families."""
        if self.kind == "histogram":
            raise ValueError(f"{self.name}: items() is for scalar kinds")
        merged: dict[tuple[str, ...], float] = {
            key: child.value for key, child in self._children.items()
        }
        for fn in self._collectors:
            for key, value in fn().items():
                merged[tuple(str(part) for part in key)] = float(value)
        return sorted(merged.items())

    def total(self) -> float:
        """Sum of a scalar family's values across all label sets."""
        return sum(value for _, value in self.items())

    def value(self, *label_values: str) -> float:
        """One label set's current scalar value (0.0 when absent)."""
        key = tuple(str(part) for part in label_values)
        return dict(self.items()).get(key, 0.0)

    def snapshot(self) -> dict:
        """Plain-dict form of the family (JSON-ready)."""
        body: dict = {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
        }
        if self.kind == "histogram":
            body["buckets"] = list(self.buckets)
            body["values"] = [
                {
                    "labels": dict(zip(self.label_names, key)),
                    "bucket_counts": list(child.bucket_counts),
                    "sum": child.sum,
                    "count": child.count,
                }
                for key, child in sorted(self._children.items())
            ]
        else:
            body["values"] = [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in self.items()
            ]
        return body


#: A component's collector installer (see :meth:`MetricsRegistry.bind`):
#: yields ``(family, collector)`` pairs when the registry is first read.
Installer = Callable[[], Iterable[tuple[InstrumentFamily, CollectorFn]]]


class MetricsRegistry:
    """Owns instrument families; the unit of export and sampling."""

    def __init__(self) -> None:
        self._families: dict[str, InstrumentFamily] = {}
        #: slot -> installer not yet run, in bind order.
        self._pending: dict[str, Installer] = {}
        #: slot -> the ``(family, collector)`` pairs its installer attached.
        self._bound: dict[str, list[tuple[InstrumentFamily, CollectorFn]]] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Iterable[str],
        buckets: tuple[float, ...] = BYTE_BUCKETS,
    ) -> InstrumentFamily:
        labels = tuple(labels)
        family = self._families.get(name)
        if family is None:
            family = InstrumentFamily(name, kind, help, labels, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"{name!r} already registered as {family.kind}, not {kind}"
            )
        if family.label_names != labels:
            raise ValueError(
                f"{name!r} already registered with labels "
                f"{family.label_names}, not {labels}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> InstrumentFamily:
        """Get or create a counter family."""
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> InstrumentFamily:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = BYTE_BUCKETS,
    ) -> InstrumentFamily:
        """Get or create a histogram family with fixed ``buckets``."""
        return self._family(name, "histogram", help, labels, buckets)

    def bind(self, slot: str, install: Installer) -> None:
        """Make ``install`` the collector installer of component ``slot``.

        One slot per live component (``"engine"``, ``"node primary"``,
        ``"cluster"``). Nothing runs now: every read path first runs the
        pending installers in bind order, so kind and label conflicts
        raise at that first read. Re-binding a slot replaces its previous
        generation — a pending installer is discarded, a materialised
        one's collectors are detached — so a rebuilt component's
        predecessor neither leaks stale rows nor stays reachable.
        """
        for family, fn in self._bound.pop(slot, ()):
            family._collectors.remove(fn)
        self._pending.pop(slot, None)
        self._pending[slot] = install

    def _materialise(self) -> None:
        """Run pending installers (a failing one stays pending)."""
        while self._pending:
            slot, install = next(iter(self._pending.items()))
            pairs = list(install())
            for family, fn in pairs:
                family.collect(fn)
            del self._pending[slot]
            self._bound[slot] = pairs

    def get(self, name: str) -> InstrumentFamily | None:
        """The named family, or None."""
        self._materialise()
        return self._families.get(name)

    def families(self) -> list[InstrumentFamily]:
        """Every registered family, sorted by name."""
        self._materialise()
        return [self._families[name] for name in sorted(self._families)]

    def total(self, name: str) -> float:
        """Sum of a scalar family across labels (0.0 when unregistered)."""
        family = self.get(name)
        return family.total() if family is not None else 0.0

    def value(self, name: str, *label_values: str) -> float:
        """One label set's value of a scalar family (0.0 when absent)."""
        family = self.get(name)
        return family.value(*label_values) if family is not None else 0.0

    def snapshot(self) -> dict:
        """``{name: family_snapshot}`` for every family (JSON-ready)."""
        return {family.name: family.snapshot() for family in self.families()}


def slo_events_family(registry: MetricsRegistry) -> InstrumentFamily:
    """The shared first-class SLO event counter on ``registry``.

    One family, fed from several layers — the dedup engine increments
    ``admission_defer`` and ``backpressure_stall``, the cluster
    increments ``failover_stall`` — so every component that wants to
    emit events gets the identical label contract through this helper.
    The :class:`~repro.obs.sampler.TimeSeriesSampler` watches this
    family by name and turns increments into timestamped event rows.
    """
    return registry.counter(
        SLO_EVENTS_FAMILY,
        "First-class SLO events per tenant: admission deferrals, "
        "backpressure stalls (deferred records force-drained inline), "
        "failover-stalled client operations",
        SLO_EVENT_LABELS,
    )
