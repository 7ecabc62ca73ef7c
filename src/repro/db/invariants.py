"""Self-verifying cluster invariants.

Every chaos test ends the same way: inject faults, let recovery run,
then call :func:`check_cluster` and demand a clean report. The checks
encode the safety argument of the whole reproduction —

* **decode round-trip** — every live record decodes through its full
  encoding chain without error; deduplication may lose *compression*
  (dropped write-backs, crashes, repairs) but never *bytes*;
* **structure** — base pointers reference existing records, chains are
  acyclic, raw records carry no base pointer;
* **reference counts** — each record's ``ref_count`` equals its stored
  dependents plus the pending write-back entries holding it as a base;
* **tombstones** — a deferred-deleted record only exists while someone
  still decodes through it;
* **checksums** — every stored payload matches its page checksum and
  the quarantine is empty (all detected corruption was repaired);
* **index liveness** — feature-index entries only point at live records;
* **index tiers** — a tiered feature index keeps its hot tier within the
  configured byte budget, charges memory consistently across tiers, and
  resolves every lookup to exactly one outcome (hot hit, cold hit, or
  miss);
* **oplog ground truth** — replaying a node's oplog from scratch yields
  byte-identical client-visible contents (skipped after checkpoint
  truncation, when the log alone no longer covers history);
* **convergence** — once replication drains, secondaries hold the same
  live records with the same contents as the primary;
* **single primary / rollback completeness** — after failover settles,
  exactly one available node holds the primary role, inserts dropped by
  a divergence rollback leave no zombie records on any node, and the
  promoted primary's deferred index rebuild has drained;
* **hop bound** — decode chains respect the hop policy's nominal depth
  bound. This one is *conditional*: dropped write-backs, unprofitable
  deltas and overlapped (Fig. 5) encodings all legitimately leave
  longer chains, so the check only arms when none of those occurred
  (:attr:`InvariantReport.hop_bound_checked` records whether it ran).

:func:`check_cluster` suspends any installed fault plan, drains
replication and write-backs, scrubs remaining corruption, and runs every
check on every node — raising :class:`ClusterInvariantError` with the
full report unless told otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from zlib import crc32

from repro.db.database import Database
from repro.db.errors import CorruptChain, CorruptPage, DatabaseError
from repro.db.record import RecordForm
from repro.db.recovery import replay_oplog
from repro.encoding.policies import HopEncodingPolicy

#: Violations kept per report; past this the run is broken enough.
MAX_VIOLATIONS = 200


@dataclass(frozen=True)
class InvariantViolation:
    """One broken safety property.

    Attributes:
        node: which node ("primary", "secondary0", ...) it was found on.
        check: the invariant's short name (e.g. ``"decode"``).
        detail: human-readable description.
        record_id: offending record, when the violation is per-record.
    """

    node: str
    check: str
    detail: str
    record_id: str | None = None

    def __str__(self) -> str:
        where = f"{self.node}/{self.record_id}" if self.record_id else self.node
        return f"[{self.check}] {where}: {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of an invariant sweep over one database or a whole cluster."""

    violations: list[InvariantViolation] = field(default_factory=list)
    nodes_checked: int = 0
    records_checked: int = 0
    #: True when the conditional hop-depth bound was armed and verified.
    hop_bound_checked: bool = False
    #: True when at least one node's oplog ground truth was replayed.
    oplog_checked: bool = False
    #: True when replica convergence was compared.
    convergence_checked: bool = False

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def add(
        self, node: str, check: str, detail: str, record_id: str | None = None
    ) -> None:
        """Record one violation (capped at :data:`MAX_VIOLATIONS`)."""
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(
                InvariantViolation(node, check, detail, record_id)
            )

    def summary(self) -> str:
        """Multi-line human-readable report."""
        checks = []
        if self.oplog_checked:
            checks.append("oplog")
        if self.convergence_checked:
            checks.append("convergence")
        if self.hop_bound_checked:
            checks.append("hop-bound")
        scope = (
            f"{self.nodes_checked} node(s), {self.records_checked} record(s)"
            + (f", extra checks: {', '.join(checks)}" if checks else "")
        )
        if self.ok:
            return f"cluster invariants OK — {scope}"
        lines = [
            f"cluster invariants FAILED — {len(self.violations)} "
            f"violation(s) over {scope}"
        ]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


class ClusterInvariantError(DatabaseError):
    """A safety property does not hold; carries the full report."""

    def __init__(self, report: InvariantReport) -> None:
        super().__init__(report.summary())
        self.report = report


# -- per-database checks -----------------------------------------------------


def check_database(
    db: Database,
    *,
    node: str = "node",
    planner=None,
    oplog=None,
    index_partitions=None,
    report: InvariantReport | None = None,
) -> InvariantReport:
    """Run every node-local invariant on one record store.

    Args:
        db: the store to verify.
        node: label used in violation messages.
        planner: the node's :class:`~repro.core.planner.WritebackPlanner`
            (primary engine's or secondary re-encoder's) — enables the
            conditional hop-bound check.
        oplog: the node's :class:`~repro.db.oplog.Oplog` — enables the
            replay ground-truth check (skipped when truncated).
        index_partitions: ``(database, index)`` pairs for the liveness
            check (primary only).
        report: accumulate into an existing report instead of a new one.
    """
    report = report if report is not None else InvariantReport()
    report.nodes_checked += 1
    _check_structure(db, node, report)
    _check_ref_counts(db, node, report)
    _check_checksums(db, node, report)
    _check_decodes(db, node, report)
    if index_partitions is not None:
        _check_index_liveness(db, node, index_partitions, report)
        _check_index_tiers(node, index_partitions, report)
    if oplog is not None:
        _check_oplog_ground_truth(db, node, oplog, report)
    if planner is not None:
        _check_hop_bound(db, node, planner, report)
    return report


def _check_structure(db: Database, node: str, report: InvariantReport) -> None:
    """Base pointers resolve, chains terminate, raw records have no base."""
    for record_id, record in db.records.items():
        report.records_checked += 1
        if record.form is RecordForm.RAW and record.base_id is not None:
            report.add(
                node, "structure",
                f"raw record carries base pointer {record.base_id!r}",
                record_id,
            )
        if record.form is RecordForm.DELTA:
            if record.base_id is None:
                report.add(
                    node, "structure", "delta record has no base", record_id
                )
                continue
            if record.base_id not in db.records:
                report.add(
                    node, "structure",
                    f"dangling base {record.base_id!r}", record_id,
                )
        # Walk the chain to catch cycles (bounded by the record count).
        seen = {record_id}
        cursor = record
        while cursor.form is RecordForm.DELTA and cursor.base_id in db.records:
            if cursor.base_id in seen:
                report.add(
                    node, "structure",
                    f"base-pointer cycle through {cursor.base_id!r}",
                    record_id,
                )
                break
            seen.add(cursor.base_id)
            cursor = db.records[cursor.base_id]


def _check_ref_counts(db: Database, node: str, report: InvariantReport) -> None:
    """ref_count == stored dependents + pending write-back references."""
    expected: dict[str, int] = {record_id: 0 for record_id in db.records}
    for record in db.records.values():
        if record.base_id is not None and record.base_id in expected:
            expected[record.base_id] += 1
    for entry in db.writeback_cache.pending_entries():
        if entry.base_id in expected:
            expected[entry.base_id] += 1
    for record_id, record in db.records.items():
        if record.ref_count != expected[record_id]:
            report.add(
                node, "refcount",
                f"ref_count={record.ref_count}, expected "
                f"{expected[record_id]} (dependents + pending write-backs)",
                record_id,
            )
        if record.deleted and record.ref_count <= 0:
            report.add(
                node, "tombstone",
                "deleted record retained with no referents", record_id,
            )


def _check_checksums(db: Database, node: str, report: InvariantReport) -> None:
    """Stored payloads verify against their page checksums; no quarantine."""
    for record_id, record in db.records.items():
        expected = db._checksums.get(record_id)
        if expected is None:
            report.add(node, "checksum", "record has no checksum", record_id)
        elif crc32(record.payload) != expected:
            report.add(
                node, "checksum", "stored payload fails checksum", record_id
            )
    for record_id in sorted(db.quarantine):
        report.add(
            node, "checksum", "record still quarantined (unrepaired)",
            record_id,
        )


def _check_decodes(db: Database, node: str, report: InvariantReport) -> None:
    """Every live record decodes through its chain without error."""
    for record_id in sorted(db.records):
        record = db.records.get(record_id)
        if record is None or record.deleted:
            continue
        try:
            content = db.verify_read(record_id)
        except (CorruptChain, CorruptPage, DatabaseError) as fault:
            report.add(node, "decode", f"read failed: {fault}", record_id)
            continue
        if content is None:
            report.add(node, "decode", "live record read as missing", record_id)


def _check_index_liveness(
    db: Database, node: str, index_partitions, report: InvariantReport
) -> None:
    """Feature-index entries point only at live (non-deleted) records."""
    live = {
        record_id
        for record_id, record in db.records.items()
        if not record.deleted
    }
    for database, index in index_partitions:
        for record_id in index.record_ids() - live:
            report.add(
                node, "index",
                f"partition {database!r} references dead record", record_id,
            )


def _check_index_tiers(
    node: str, index_partitions, report: InvariantReport
) -> None:
    """Tier accounting holds on every feature-index partition.

    Duck-typed so both index kinds pass through: a plain cuckoo index
    has no budget and no cold tier, so only the lookup-outcome identity
    applies to it. For tiered partitions:

    * the hot tier never exceeds ``hot_bytes_budget`` at rest — demotion
      is synchronous with the insert that crossed the budget, so there
      is no window where the checker may observe an over-budget tier;
    * total charged memory is exactly the sum of the two tiers' charges;
    * every lookup resolved to exactly one of hot hit / cold hit / miss
      (the same identity ``check-metrics`` enforces on the exported
      families, verified here at the source).
    """
    for database, index in index_partitions:
        lookups = getattr(index, "lookups", None)
        if lookups is not None:
            outcomes = (
                getattr(index, "hot_hits", 0)
                + getattr(index, "cold_hits", 0)
                + getattr(index, "misses", 0)
            )
            if lookups != outcomes:
                report.add(
                    node, "index-tier",
                    f"partition {database!r}: lookups={lookups} != "
                    f"hot+cold+miss={outcomes}",
                )
        budget = getattr(index, "hot_bytes_budget", None)
        if budget is not None:
            hot_bytes = index.hot_bytes
            if hot_bytes > budget:
                report.add(
                    node, "index-tier",
                    f"partition {database!r}: hot tier {hot_bytes} B "
                    f"exceeds budget {budget} B",
                )
        hot_bytes = getattr(index, "hot_bytes", None)
        cold_bytes = getattr(index, "cold_bytes", None)
        if hot_bytes is not None and cold_bytes is not None:
            if index.memory_bytes != hot_bytes + cold_bytes:
                report.add(
                    node, "index-tier",
                    f"partition {database!r}: memory_bytes="
                    f"{index.memory_bytes} != hot {hot_bytes} + "
                    f"cold {cold_bytes}",
                )


def _check_oplog_ground_truth(
    db: Database, node: str, oplog, report: InvariantReport
) -> None:
    """A from-scratch oplog replay reproduces the node's visible contents.

    The oplog is the write-ahead record of everything the node accepted,
    so its replay is the ground truth the store must agree with —
    byte-for-byte, per record. Skipped when a checkpoint truncated the
    log (history is then split between snapshot and log).
    """
    if oplog.truncated_before > 0:
        return
    report.oplog_checked = True
    replayed, _ = replay_oplog(oplog.entries())
    live = {
        record_id
        for record_id, record in db.records.items()
        if not record.deleted
    }
    replayed_live = {
        record_id
        for record_id, record in replayed.records.items()
        if not record.deleted
    }
    for record_id in sorted(live - replayed_live):
        report.add(
            node, "oplog", "live record absent from oplog replay", record_id
        )
    for record_id in sorted(replayed_live - live):
        report.add(
            node, "oplog", "oplog replay yields record the store lost",
            record_id,
        )
    for record_id in sorted(replayed_live & live):
        expected = replayed.verify_read(record_id)
        try:
            actual = db.verify_read(record_id)
        except (CorruptChain, CorruptPage, DatabaseError):
            continue  # already reported by the decode check
        if actual != expected:
            report.add(
                node, "oplog",
                f"content diverges from oplog replay "
                f"({len(actual or b'')} vs {len(expected or b'')} bytes)",
                record_id,
            )


def _check_hop_bound(
    db: Database, node: str, planner, report: InvariantReport
) -> None:
    """Decode depth respects the hop policy's bound — when it must.

    The bound is only guaranteed while every planned write-back landed:
    a dropped cache entry, an unprofitable delta, or an overlapped
    (Fig. 5) chain fork each legitimately leave a record further from
    its raw base. The check therefore arms only when none of those
    escape hatches fired; ``report.hop_bound_checked`` says whether it
    did.
    """
    policy = planner.policy
    if not isinstance(policy, HopEncodingPolicy):
        return
    if (
        db.writeback_cache.discarded > 0
        or len(db.writeback_cache) > 0
        or planner.unprofitable_skips > 0
        or planner.overlapped_encodings > 0
        or db.io_failures > 0
    ):
        return
    report.hop_bound_checked = True
    hop = policy.hop_distance
    for record_id, record in db.records.items():
        if record.deleted:
            continue
        try:
            chain_id, _ = planner.chains.position_of(record_id)
        except KeyError:
            continue  # unique record / rebuilt post-crash: raw, depth 0
        length = len(planner.chains.records_of_chain(chain_id))
        bound = (hop - 1) * (policy.hop_levels(length) + 2) + 2
        try:
            depth = db.decode_cost(record_id)
        except DatabaseError:
            continue  # structural breakage is reported elsewhere
        if depth > bound:
            report.add(
                node, "hop-bound",
                f"decode depth {depth} exceeds bound {bound} "
                f"(chain length {length}, H={hop})",
                record_id,
            )


# -- cluster-level check -----------------------------------------------------


def check_cluster(
    cluster, *, drain: bool = True, strict: bool = True
) -> InvariantReport:
    """Verify every safety property across a whole cluster.

    Suspends the installed fault plan (so verification reads are not
    themselves faulted), optionally drains replication, write-backs and
    the corruption quarantine, runs :func:`check_database` on every
    node, then compares replica contents against the primary.

    Args:
        cluster: a :class:`~repro.db.cluster.Cluster`.
        drain: finalize replication and scrub quarantined corruption
            before checking (chaos tests want this; set False to inspect
            a cluster mid-flight, which skips the convergence check).
        strict: raise :class:`ClusterInvariantError` on any violation
            instead of returning the failing report.

    Returns:
        The :class:`InvariantReport` (always, when ``strict`` is False).
    """
    plan = getattr(cluster, "fault_plan", None)
    was_active = plan.suspend() if plan is not None else False
    try:
        if drain:
            cluster.finalize()
            cluster.scrub()
            # Repairs may re-raise records raw; nothing further to drain.
        report = InvariantReport()
        primary = cluster.primary
        check_database(
            primary.db,
            node="primary",
            planner=primary.engine.planner if primary.engine else None,
            oplog=primary.oplog,
            index_partitions=(
                primary.engine.index_partitions() if primary.engine else None
            ),
            report=report,
        )
        for position, secondary in enumerate(cluster.secondaries):
            check_database(
                secondary.db,
                node=f"secondary{position}",
                planner=(
                    secondary.reencoder.planner if secondary.reencoder else None
                ),
                oplog=secondary.oplog,
                report=report,
            )
        if drain:
            _check_convergence(cluster, report)
            if getattr(cluster, "failover", None) is not None:
                _check_single_primary(cluster, report)
                _check_rollback_completeness(cluster, report)
        if strict and not report.ok:
            raise ClusterInvariantError(report)
        return report
    finally:
        if plan is not None and was_active:
            plan.resume()


def check_sharded_cluster(
    cluster, *, drain: bool = True, strict: bool = True
) -> InvariantReport:
    """Verify a sharded topology: every shard, plus the routing globals.

    Runs :func:`check_cluster` on each shard (violations prefixed with
    ``shard<N>/``) and then the topology-level checks no single shard
    can see:

    * **placement** — every record lives on exactly the shard the
      router's placement function assigns its id to (records never
      migrate);
    * **disjointness** — no record id is stored on two shards;
    * **routing accounting** — the router's per-shard insert counts sum
      to the inserts the shards actually accepted.

    Args:
        cluster: a :class:`~repro.db.sharding.ShardedCluster`.
        drain: finalize replication and scrub before checking.
        strict: raise :class:`ClusterInvariantError` on any violation.
    """
    report = InvariantReport()
    for index, shard in enumerate(cluster.shards):
        shard_report = check_cluster(shard, drain=drain, strict=False)
        report.nodes_checked += shard_report.nodes_checked
        report.records_checked += shard_report.records_checked
        report.hop_bound_checked |= shard_report.hop_bound_checked
        report.oplog_checked |= shard_report.oplog_checked
        report.convergence_checked |= shard_report.convergence_checked
        for violation in shard_report.violations:
            report.add(
                f"shard{index}/{violation.node}",
                violation.check,
                violation.detail,
                violation.record_id,
            )
    _check_placement(cluster, report)
    if strict and not report.ok:
        raise ClusterInvariantError(report)
    return report


def _check_placement(cluster, report: InvariantReport) -> None:
    """Records sit on their routed shard; no id exists on two shards."""
    router = cluster.router
    owner: dict[str, int] = {}
    for index, shard in enumerate(cluster.shards):
        node = f"shard{index}/primary"
        for record_id in sorted(shard.primary.db.records):
            expected = router.shard_of(record_id)
            if expected != index:
                report.add(
                    node, "placement",
                    f"record routed to shard {expected} but stored here",
                    record_id,
                )
            previous = owner.setdefault(record_id, index)
            if previous != index:
                report.add(
                    node, "placement",
                    f"record also stored on shard {previous}", record_id,
                )
    routed = sum(router.counts)
    accepted = sum(shard.inserts for shard in cluster.shards)
    if routed != accepted:
        report.add(
            "router", "placement",
            f"router counted {routed} inserts, shards accepted {accepted}",
        )


def _check_single_primary(cluster, report: InvariantReport) -> None:
    """Exactly one node holds the primary role, and it is up.

    After failover settles there must be one available primary — the
    write path has somewhere to go — and every replica must identify as
    a secondary (a demoted node that still believed it was primary would
    accept divergent writes). A node still awaiting rejoin is fine: it
    holds no role until the rejoin completes or is blocked.
    """
    primary = cluster.primary
    if not getattr(primary, "is_available", True):
        report.add(
            "primary", "single-primary",
            "no available primary after failover settled",
        )
    if getattr(primary.db, "node_role", "primary") != "primary":
        report.add(
            "primary", "single-primary",
            f"primary's store carries role {primary.db.node_role!r}",
        )
    for position, secondary in enumerate(cluster.secondaries):
        role = getattr(secondary.db, "node_role", "secondary")
        if role != "secondary":
            report.add(
                f"secondary{position}", "single-primary",
                f"replica's store carries role {role!r}",
            )


def _check_rollback_completeness(cluster, report: InvariantReport) -> None:
    """Rolled-back inserts leave no zombies behind.

    Every insert a rollback dropped (recorded per failover event) must
    be gone from every node — unless the surviving history independently
    contains that record id, in which case the live copy is the
    authoritative one, not a leftover. The promoted primary's deferred
    index rebuild must also have drained: an entry still in the backlog
    would mean reads can dedup against records the index never saw.
    """
    failover = cluster.failover
    rolled_back: set[str] = set()
    for event in failover.events:
        rolled_back.update(event.rolled_back_inserts)
    if rolled_back:
        authorized = {
            entry.record_id
            for entry in cluster.primary.oplog.entries()
            if entry.op == "insert"
        }
        for name, node in cluster.nodes():
            for record_id in sorted(rolled_back - authorized):
                record = node.db.records.get(record_id)
                if record is not None and not record.deleted:
                    report.add(
                        name, "rollback",
                        "rolled-back insert still live (zombie record)",
                        record_id,
                    )
    backlog = getattr(cluster.primary, "index_backlog_len", 0)
    if backlog:
        report.add(
            "primary", "promoted-index",
            f"deferred index rebuild backlog not drained "
            f"({backlog} record(s) pending)",
        )
    _check_deferred_drained(cluster, report)


def _check_deferred_drained(cluster, report: InvariantReport) -> None:
    """After a drain, no record still awaits its out-of-line dedup pass.

    ``Cluster.finalize`` force-drains the admission queue; an entry left
    behind would mean the run's storage state never converges with the
    all-inline equivalent (the inline ≡ hybrid property the admission
    subsystem promises).
    """
    primary = cluster.primary
    if not getattr(primary, "is_available", True):
        return  # a crashed primary cannot drain; convergence checks cover it
    pending = getattr(primary, "deferred_queue_len", 0)
    if pending:
        report.add(
            "primary", "admission",
            f"deferred dedup queue not drained ({pending} record(s) "
            "pending after finalize)",
        )


def _check_convergence(cluster, report: InvariantReport) -> None:
    """After drain, secondaries mirror the primary's live contents."""
    head = cluster.primary.oplog.next_seq
    for position, link in enumerate(cluster.links):
        if link.cursor < head:
            report.add(
                f"secondary{position}", "convergence",
                f"replication cursor {link.cursor} behind oplog head {head}",
            )
    report.convergence_checked = True
    primary_db = cluster.primary.db
    primary_live = {
        record_id
        for record_id, record in primary_db.records.items()
        if not record.deleted
    }
    for position, secondary in enumerate(cluster.secondaries):
        node = f"secondary{position}"
        secondary_live = {
            record_id
            for record_id, record in secondary.db.records.items()
            if not record.deleted
        }
        for record_id in sorted(primary_live - secondary_live):
            report.add(node, "convergence", "missing replicated record",
                       record_id)
        for record_id in sorted(secondary_live - primary_live):
            report.add(node, "convergence", "record absent on primary",
                       record_id)
        for record_id in sorted(primary_live & secondary_live):
            try:
                expected = primary_db.verify_read(record_id)
                actual = secondary.db.verify_read(record_id)
            except (CorruptChain, CorruptPage, DatabaseError):
                continue  # reported by the per-node checks
            if expected != actual:
                report.add(
                    node, "convergence",
                    f"content diverges from primary "
                    f"({len(actual or b'')} vs {len(expected or b'')} bytes)",
                    record_id,
                )
