"""Replay a generated plan against a fresh cluster and derive the metrics.

One *repetition* opens a cluster with ``open_cluster(plan.spec)``, replays
the load phase (if any) and the timed phase, each closed by
``finalize()``, and calls ``stats()``. That window is what the wall
clock covers. Afterwards, outside it, every record is read back against
the content the trace last wrote, replica convergence is checked and
``check_invariants()`` runs.

A run repeats the repetition on fresh clusters until ``--seconds`` have
passed and reports medians across repetitions. Every repetition of one
plan does identical work, so the simulated figures
(:data:`FINGERPRINT`) must repeat exactly.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.api import open_cluster

from perfbench import spans
from perfbench.workloads import Plan

TAIL_PERCENTILES = (99, 95, 90)
#: The tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10
#: Extra ``open_cluster`` calls before each repetition, so ``setup_s`` is
#: a median of many set-ups spread over the whole run, like the other
#: metrics, even when a run fits few repetitions.
SETUP_SAMPLES_PER_REP = 20
#: Metrics that depend only on the simulation and must repeat exactly
#: across repetitions, processes and ``PYTHONHASHSEED`` values.
FINGERPRINT = ("storage_ratio", "network_ratio", "sim_ops_s")
OP_KINDS = ("insert", "read", "update", "delete")
#: Most exception tracebacks kept per run for the report.
MAX_ERRORS = 3


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90 leaving ``MIN_BEYOND`` of ``n`` samples
    beyond its nearest-rank position; None when none does."""
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= MIN_BEYOND:
            return p
    return None


def percentile(values: list[int], p: int) -> int:
    """Nearest-rank percentile of ``values`` (any order)."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


@dataclass
class Rep:
    """Outcome of one repetition."""

    wall_ns: int
    setup_s: float
    #: End-to-end figures of this repetition (no latency keys).
    figures: dict[str, float]
    #: Client-call latencies in ns per op kind (idle gaps excluded).
    latencies: dict[str, list[int]]
    attempted: int
    failed: int
    converged: bool
    violations: list[str]
    check_s: float
    #: Counters read from the cluster at the end of the window.
    facts: dict[str, float]
    errors: list[str] = field(default_factory=list)
    #: Spans of a traced repetition (dropped once its metrics are taken,
    #: except for the run's last traced repetition).
    recorder: spans.SpanRecorder | None = None
    origin_ns: int = 0
    #: Per-layer metrics of a traced repetition.
    layers: dict[str, float] | None = None
    #: Every span closed, and inside the wall time.
    spans_nested: bool = True

    @property
    def fingerprint(self) -> tuple[str, ...]:
        return tuple(repr(self.figures[name]) for name in FINGERPRINT)


def _replay(client, plan: Plan, steps, latencies, errors) -> tuple[int, int]:
    """Send ``steps`` closed-loop; returns ``(operations, failed)``."""
    database = plan.database
    clock = time.perf_counter_ns
    operations = failed = 0
    for step in steps:
        kind = step.kind
        if kind == "idle":
            client.cluster.execute(plan.idle_op)
            continue
        operations += 1
        start = clock()
        try:
            if kind == "read":
                got = client.read(database, step.record_id)
            elif kind == "insert":
                client.insert(database, step.record_id, step.content)
            elif kind == "update":
                client.update(database, step.record_id, step.content)
            else:
                client.delete(database, step.record_id)
        except Exception:  # counted as a failed operation; the run goes on
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(traceback.format_exc())
            continue
        latencies[kind].append(clock() - start)
        if kind == "read" and got != step.expected:
            failed += 1
    return operations, failed


def _facts(client) -> dict[str, float]:
    """Cache, write-back, buffer-pool and audit counters of the primary."""
    primary = client.cluster.primary
    reasons: dict[str, int] = defaultdict(int)
    for shard in client.audit_report(limit=0)["shards"].values():
        for reason, count in (shard["summary"] or {}).get("reasons", {}).items():
            reasons[reason] += count
    facts = {
        "cache.evictions": primary.engine.source_cache.evictions,
        "cache.writeback_flushes": primary.db.writeback_cache.flushed,
        "audit.deduped": reasons["deduped"],
        "audit.weak_delta": reasons["weak_delta"],
        "bufferpool.hits": 0,
        "bufferpool.misses": 0,
    }
    heap = getattr(primary.db.pages, "heap", None)
    if heap is not None:
        facts["bufferpool.hits"] = heap.pool.hits
        facts["bufferpool.misses"] = heap.pool.misses
    return facts


def run_rep(plan: Plan, recorder: spans.SpanRecorder | None = None) -> Rep:
    """One repetition on a fresh cluster; traced when given a recorder."""
    # Collect the previous repetition's cyclic garbage now rather than
    # inside this repetition's window.
    gc.collect()
    clock = time.perf_counter_ns
    latencies: dict[str, list[int]] = defaultdict(list)
    errors: list[str] = []
    phases = []
    attempted = failed = 0
    phase_steps = [
        (steps, sum(len(s.content) for s in steps if s.kind == "insert"))
        for steps in (plan.load, plan.timed)
        if steps
    ]
    with spans.installed(recorder) if recorder is not None else nullcontext():
        origin = clock()
        client = open_cluster(plan.spec)
        setup_ns = clock() - origin
        for steps, insert_bytes in phase_steps:
            sim_start, wall_start = client.clock.now, clock()
            operations, phase_failed = _replay(
                client, plan, steps, latencies, errors
            )
            client.finalize()
            phases.append((
                clock() - wall_start,
                client.clock.now - sim_start,
                operations,
                insert_bytes,
            ))
            attempted += operations
            failed += phase_failed
        stats = client.stats()
        wall_ns = clock() - origin
    facts = _facts(client)

    # Outside the window: read every record back, then the system checks.
    for record_id, expected in plan.final.items():
        attempted += 1
        try:
            got = client.read(plan.database, record_id)
        except Exception:
            got = ()  # never equal to bytes or None
            if len(errors) < MAX_ERRORS:
                errors.append(traceback.format_exc())
        failed += got != expected
    converged = client.replicas_converged()
    check_start = clock()
    report = client.check_invariants()
    check_s = (clock() - check_start) / 1e9

    ingest_wall, _, _, ingest_bytes = phases[0]
    timed_wall, timed_sim, timed_ops, _ = phases[-1]
    figures = {
        "ingest_mb_s": ingest_bytes / 1e6 / (ingest_wall / 1e9),
        "ops_s": timed_ops / (timed_wall / 1e9),
        "storage_ratio": stats["logical_bytes"] / stats["physical_bytes"],
        "network_ratio": stats["network_compression_ratio"],
        "sim_ops_s": timed_ops / timed_sim,
    }
    return Rep(
        wall_ns=wall_ns,
        setup_s=setup_ns / 1e9,
        figures=figures,
        latencies=dict(latencies),
        attempted=attempted,
        failed=failed,
        converged=converged,
        violations=[str(v) for v in report.violations],
        check_s=check_s,
        facts=facts,
        errors=errors,
        recorder=recorder,
        origin_ns=origin,
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    recorder = rep.recorder
    summary = spans.summarize(recorder, rep.wall_ns)
    own = {layer: ns / 1e9 for layer, ns in summary["self_ns"].items()}
    calls = summary["calls"]
    inclusive_ns = summary["inclusive_ns"]
    counts = recorder.counts
    facts = rep.facts
    deduped = facts["audit.deduped"]
    return {
        "chunking.calls": calls["chunking"],
        "chunking.bytes": counts["chunking.bytes"],
        "chunking.self_s": own["chunking"],
        "sketch.calls": calls["sketch"],
        "sketch.features": counts["sketch.features"],
        "sketch.self_s": own["sketch"],
        "index.lookup_calls": calls["index.lookup"],
        "index.lookup_s": inclusive_ns["index.lookup"] / 1e9,
        "index.hit_ratio": _ratio(counts["index.hits"], calls["index.lookup"]),
        "index.remove_calls": calls["index.remove"],
        "index.remove_s": inclusive_ns["index.remove"] / 1e9,
        "index.self_s": own["index"],
        "core.select_s": inclusive_ns["core.select"] / 1e9,
        "core.plan_s": inclusive_ns["core.plan"] / 1e9,
        "core.dedup_yield": _ratio(deduped, counts["sketch.records"]),
        "core.self_s": own["core"],
        "delta.encode_calls": calls["delta.encode"],
        "delta.encode_s": inclusive_ns["delta.encode"] / 1e9,
        "delta.encode_kept_ratio": _ratio(
            deduped, deduped + facts["audit.weak_delta"]
        ),
        "delta.decode_calls": calls["delta.decode"],
        "delta.decode_s": inclusive_ns["delta.decode"] / 1e9,
        "delta.self_s": own["delta"],
        "cache.hit_ratio": _ratio(counts["cache.hits"], calls["cache.lookup"]),
        "cache.evictions": facts["cache.evictions"],
        "cache.writeback_flushes": facts["cache.writeback_flushes"],
        "cache.self_s": own["cache"],
        "db.read_hops": _ratio(counts["db.read_hops"], calls["db.read"]),
        "db.oplog_s": inclusive_ns["db.oplog"] / 1e9,
        "db.oplog_calls": calls["db.oplog"],
        "db.replication_s": inclusive_ns["db.replication"] / 1e9,
        "db.replication_syncs": counts["db.replication_syncs"],
        "db.replication_bytes": counts["db.replication_bytes"],
        "db.self_s": own["db"],
        "storage.self_s": own["storage"],
        "storage.pages_written": calls["storage.write_page"],
        "storage.bufferpool_hit_ratio": _ratio(
            facts["bufferpool.hits"],
            facts["bufferpool.hits"] + facts["bufferpool.misses"],
        ),
        "compression.self_s": own["compression"],
        "compression.bytes_in": counts["compression.bytes_in"],
        "compression.bytes_out": counts["compression.bytes_out"],
        "gc.batches": calls["gc.run"],
        "gc.self_s": own["gc"],
        "gc.reclaimed_bytes": counts["gc.reclaimed_bytes"],
        "gc.rollbacks": counts["gc.rollbacks"],
        "sim.calls": calls["sim"],
        "sim.self_s": own["sim"],
        "invariants.check_s": rep.check_s,
        "unattributed_s": summary["unattributed_ns"] / 1e9,
        "obs.traced_wall_s": rep.wall_ns / 1e9,
    }


@dataclass
class RunResult:
    """Everything one invocation measured."""

    reps: list[Rep]
    traced: list[Rep]
    setup_samples: list[float]
    measure_s: float

    @property
    def all_reps(self) -> list[Rep]:
        return self.reps + self.traced

    @property
    def attempted(self) -> int:
        return sum(rep.attempted for rep in self.all_reps)

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.all_reps)

    def problems(self) -> list[str]:
        """Every failed correctness check, as report lines."""
        found = []
        for i, rep in enumerate(self.all_reps):
            if rep.failed:
                found.append(f"rep {i}: {rep.failed} of {rep.attempted} operations failed")
            if not rep.converged:
                found.append(f"rep {i}: replicas did not converge")
            found += [f"rep {i}: invariant violated: {v}" for v in rep.violations]
            found += [f"rep {i}: {e.strip()}" for e in rep.errors]
        prints = {rep.fingerprint for rep in self.all_reps}
        if len(prints) > 1:
            found.append(f"{', '.join(FINGERPRINT)} differ between repetitions: {sorted(prints)}")
        for i, rep in enumerate(self.traced):
            if not rep.spans_nested:
                found.append(f"traced rep {i}: spans do not nest inside the wall time")
        return found

    def latency_samples(self) -> dict[str, tuple[int, int | None]]:
        """Per op kind present: ``(samples per repetition, tail percentile)``."""
        notes = {}
        for kind in OP_KINDS:
            n = min(len(rep.latencies.get(kind, ())) for rep in self.reps)
            if n:
                notes[kind] = (n, tail_percentile(n))
        return notes

    def end_to_end(self) -> dict[str, float]:
        """Medians over the untraced repetitions.

        Latency percentiles are taken per repetition, whose sample count
        is fixed by the plan, so the tail percentile chosen never depends
        on how many repetitions fit in the run.
        """
        reps = self.reps
        metrics = {"setup_s": statistics.median(self.setup_samples)}
        for name in reps[0].figures:
            metrics[name] = statistics.median(rep.figures[name] for rep in reps)
        for kind, (_, p) in self.latency_samples().items():
            metrics[f"{kind}_p50_ms"] = statistics.median(
                percentile(rep.latencies[kind], 50) / 1e6 for rep in reps
            )
            if p is not None:
                metrics[f"{kind}_tail_ms"] = statistics.median(
                    percentile(rep.latencies[kind], p) / 1e6 for rep in reps
                )
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        )
        metrics["fail_ratio"] = _ratio(self.failed, self.attempted)
        return metrics

    def per_layer(self) -> dict[str, float]:
        """Medians over the traced repetitions, plus the tracing overhead."""
        rows = [rep.layers for rep in self.traced]
        metrics = {
            name: statistics.median(row[name] for row in rows) for name in rows[0]
        }
        untraced_wall = statistics.median(rep.wall_ns for rep in self.reps)
        metrics["obs.trace_overhead_ratio"] = (
            statistics.median(rep.wall_ns for rep in self.traced) / untraced_wall - 1
        )
        return metrics


def measure(plan: Plan, seconds: float, trace: bool) -> RunResult:
    """Repeat ``plan`` for about ``seconds`` (at least once).

    Stops before a repetition that would, at the mean pace so far, end
    past ``seconds``. With ``trace`` every untraced repetition is
    followed by a traced one, so both see the same machine state and
    their walls compare.
    """
    clock = time.perf_counter_ns
    setup_samples = []
    reps: list[Rep] = []
    traced: list[Rep] = []
    start = clock()
    while True:
        for _ in range(SETUP_SAMPLES_PER_REP):
            setup_start = clock()
            open_cluster(plan.spec)
            setup_samples.append((clock() - setup_start) / 1e9)
        reps.append(run_rep(plan))
        setup_samples.append(reps[-1].setup_s)
        if trace:
            rep = run_rep(plan, spans.SpanRecorder())
            rep.layers = layer_metrics(rep)
            rep.spans_nested = (
                rep.recorder.balanced and rep.layers["unattributed_s"] >= 0
            )
            if traced:
                traced[-1].recorder = None  # keep the last rep's spans only
            traced.append(rep)
        elapsed = clock() - start
        if elapsed * (1 + 1 / len(reps)) > seconds * 1e9:
            break
    return RunResult(
        reps=reps,
        traced=traced,
        setup_samples=setup_samples,
        measure_s=(clock() - start) / 1e9,
    )
