"""Open-ended continuous broadcast with SLOs, backpressure, and churn.

:class:`ContinuousBroadcast` is the production-shaped driver the ROADMAP
asks for: instead of one-shot k-broadcast it serves an **open-ended
arrival stream** (a streaming :class:`~repro.dynamic.arrivals
.ArrivalProcess`) over a network whose topology may churn underneath it
(a :class:`~repro.dynamic.churn.ChurnNetwork`, optionally wrapped in a
:class:`~repro.resilience.network.DynamicFaultNetwork` so crashes and
jamming compose).  The paper's four-stage machinery is reused as-is —
the driver owns *when* to run which stage, the paper owns *how*:

- **bounded queues with explicit backpressure** — every origin holds at
  most ``queue_capacity`` packets; overflow is resolved by the
  configured drop policy (``drop_newest``, ``drop_oldest``, or
  ``reject``, i.e. backpressure pushed to the producer);
- **structure reuse with graceful degradation** — leader election and
  BFS run once, then every dispatch reuses the tree; topology churn is
  detected through BFS-tree *invariant* violations (parent departed,
  tree edge severed, joiner unlabeled) and handled by the PR-1
  Decay-based :func:`~repro.resilience.repair.repair_tree` pass —
  a full re-election happens only when the leader itself is gone or
  repair cannot reach live nodes;
- **per-packet latency SLOs** — every delivery is timestamped and
  compared against ``slo_rounds``; the result carries an exact
  power-of-two latency histogram plus the violation count;
- **state handoff** — a departing node's queued packets are handed to
  its smallest-id live neighbor with queue room (each handoff re-homes
  the packet; overflow on handoff is an explicit drop bucket);
- **exact accounting** — ``arrivals == delivered + dropped(*) +
  rejected + in_flight`` holds at every exit, and an append-only audit
  log of every queue transition lets the chaos oracles *recompute* the
  books instead of trusting them.

Determinism: one seeded RNG drives the protocol stages and nothing
else; the arrival process carries its own stream.  Same seeds, same
schedule ⇒ byte-identical run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.packets import Packet
from repro.core.collection import run_collection_stage
from repro.core.config import AlgorithmParameters
from repro.core.dissemination import run_dissemination_stage
from repro.dynamic.arrivals import ArrivalProcess
from repro.dynamic.policies import BatchPolicy, ImmediatePolicy
from repro.primitives.bfs import build_distributed_bfs
from repro.primitives.decay import decay_slots
from repro.primitives.leader_election import elect_leader
from repro.radio.rng import SeedLike, make_rng

#: Queue-overflow resolutions.
DROP_POLICIES = ("drop_newest", "drop_oldest", "reject")


@dataclass(frozen=True)
class ContinuousPolicy:
    """Knobs for the continuous driver.

    Attributes
    ----------
    queue_capacity:
        Per-origin queue bound (the queue-bound oracle audits it).
    drop_policy:
        Overflow resolution: ``drop_newest`` discards the arriving
        packet, ``drop_oldest`` evicts the head to admit it, ``reject``
        refuses admission and charges the producer (backpressure).
    slo_rounds:
        Per-packet latency SLO (arrival → full delivery, in rounds).
    max_batch:
        Cap on packets handed to one dispatch (keeps a single stage
        execution's round cost bounded under bursts).
    max_attempts:
        Delivery attempts per packet before it is dropped as
        undeliverable (collection/dissemination failures re-queue).
    check_interval:
        Idle-time cadence (rounds) of the BFS-invariant check, so
        joiners attach and severed trees heal even with no traffic.
    repair_epoch_factor:
        Decay-epoch budget factor for one repair pass (as in
        :class:`~repro.resilience.supervisor.SupervisionPolicy`).
    """

    queue_capacity: int = 16
    drop_policy: str = "drop_newest"
    slo_rounds: int = 2048
    max_batch: int = 32
    max_attempts: int = 3
    check_interval: int = 64
    repair_epoch_factor: float = 2.0

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"drop_policy must be one of {DROP_POLICIES}"
            )
        if self.slo_rounds < 1:
            raise ValueError("slo_rounds must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")

    def to_json(self) -> dict:
        return {
            "queue_capacity": self.queue_capacity,
            "drop_policy": self.drop_policy,
            "slo_rounds": self.slo_rounds,
            "max_batch": self.max_batch,
            "max_attempts": self.max_attempts,
            "check_interval": self.check_interval,
            "repair_epoch_factor": self.repair_epoch_factor,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ContinuousPolicy":
        return cls(**data)


@dataclass
class QueuedPacket:
    """One packet waiting at (or handed to) an origin's queue."""

    packet: Packet
    arrival_round: int
    owner: int
    attempts: int = 0


@dataclass(frozen=True)
class AuditEvent:
    """One queue/delivery transition for oracle recomputation."""

    round: int
    kind: str  # arrive/enqueue/reject/drop_queue/drop_handoff/
    #           drop_retry/handoff/dispatch/deliver/requeue/
    #           dropped_quarantine (purged from a queue on conviction)/
    #           drop_quarantine (discarded mid-dispatch, not queued)
    node: int
    pid: int
    arrival_round: int = -1


@dataclass
class JoinerRecord:
    """A joiner's attach progress, for the catch-up oracle.

    ``rejected`` marks joiners the admission gate turned away (forged
    credentials or a quarantined identity) — they never attach, and the
    catch-up oracle must not expect them to.
    """

    node: int
    join_round: int
    attach_round: Optional[int] = None
    departed_again: bool = False
    rejected: bool = False


@dataclass
class ContinuousResult:
    """Outcome of one open-ended run.

    The accounting identity (checked by :meth:`accounting`) is::

        arrivals == delivered + dropped_queue + dropped_handoff
                    + dropped_retry + dropped_quarantine + rejected
                    + in_flight

    (``dropped_quarantine`` counts packets purged when their holder was
    convicted; it is zero whenever no insider machinery is armed.)
    """

    rounds: int
    arrivals: int
    delivered: int
    dropped_queue: int
    dropped_handoff: int
    dropped_retry: int
    rejected: int
    in_flight: int
    dispatches: int
    restructures: int
    repairs: int
    handoffs: int
    max_queue_len: int
    max_cycle_rounds: int
    repair_round_budget: int
    slo_rounds: int
    slo_violations: int
    latency_histogram: Dict[int, int] = field(default_factory=dict)
    deliveries: List[Tuple[int, int, int]] = field(  # (pid, arrival, deliver)
        repr=False, default_factory=list
    )
    joiners: List[JoinerRecord] = field(repr=False, default_factory=list)
    audit_log: List[AuditEvent] = field(repr=False, default_factory=list)
    queue_capacity: int = 0
    # -- insider tolerance (all zero/empty without Byzantine machinery) --
    dropped_quarantine: int = 0
    mis_decodes: int = 0
    mis_attributions: int = 0
    byzantine_rx_discarded: int = 0
    forged_acks_rejected: int = 0
    poisoned_rows_attributed: int = 0
    convictions: List[Tuple[int, int, str]] = field(  # (node, round, why)
        repr=False, default_factory=list
    )
    quarantined_carried: List[int] = field(default_factory=list)
    quarantine_final: List[int] = field(default_factory=list)
    quarantine_history: List[dict] = field(repr=False, default_factory=list)
    admission_log: List[dict] = field(repr=False, default_factory=list)
    admission_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Delivered packets per round — the 1302.0264 comparison."""
        return self.delivered / self.rounds if self.rounds else 0.0

    @property
    def blacklisted(self) -> List[int]:
        """Every identity barred by run end (carried + convicted),
        mirroring ``BroadcastReport.blacklisted`` for the oracles."""
        return sorted(
            set(self.quarantine_final)
            | set(self.quarantined_carried)
            | {v for v, _, _ in self.convictions}
        )

    def accounting(self) -> Dict[str, int]:
        return {
            "arrivals": self.arrivals,
            "delivered": self.delivered,
            "dropped_queue": self.dropped_queue,
            "dropped_handoff": self.dropped_handoff,
            "dropped_retry": self.dropped_retry,
            "dropped_quarantine": self.dropped_quarantine,
            "rejected": self.rejected,
            "in_flight": self.in_flight,
        }

    @property
    def accounting_exact(self) -> bool:
        a = self.accounting()
        return a["arrivals"] == (
            a["delivered"] + a["dropped_queue"] + a["dropped_handoff"]
            + a["dropped_retry"] + a["dropped_quarantine"]
            + a["rejected"] + a["in_flight"]
        )

    def latency_percentile(self, q: float) -> float:
        """q-th percentile delivery latency in rounds (nan if none)."""
        if not self.deliveries:
            return float("nan")
        lat = sorted(d - a for _, a, d in self.deliveries)
        idx = min(len(lat) - 1, int(math.ceil(q / 100.0 * len(lat))) - 1)
        return float(lat[max(idx, 0)])

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "throughput": self.throughput,
            "dispatches": self.dispatches,
            "restructures": self.restructures,
            "repairs": self.repairs,
            "handoffs": self.handoffs,
            "max_queue_len": self.max_queue_len,
            "slo_rounds": self.slo_rounds,
            "slo_violations": self.slo_violations,
            "latency_histogram": {
                str(k): v for k, v in sorted(self.latency_histogram.items())
            },
            "latency_p50": self.latency_percentile(50),
            "latency_p99": self.latency_percentile(99),
            **self.accounting(),
            "accounting_exact": self.accounting_exact,
            "mis_decodes": self.mis_decodes,
            "mis_attributions": self.mis_attributions,
            "byzantine_rx_discarded": self.byzantine_rx_discarded,
            "forged_acks_rejected": self.forged_acks_rejected,
            "poisoned_rows_attributed": self.poisoned_rows_attributed,
            "convictions": [
                [v, r, why] for v, r, why in self.convictions
            ],
            "quarantined_carried": list(self.quarantined_carried),
            "quarantine_final": list(self.quarantine_final),
            "admission": dict(self.admission_counters),
        }


def latency_bucket(latency: int) -> int:
    """Power-of-two histogram bucket: b such that 2^b <= latency < 2^(b+1)
    (latency 0 lands in bucket -1)."""
    return latency.bit_length() - 1


class ContinuousBroadcast:
    """Serve an open-ended arrival stream over a (possibly churning)
    network.

    Parameters
    ----------
    network:
        Anything with the ``resolve_round`` interface.  Churn/fault
        layers are discovered through duck typing: ``is_present`` /
        ``edge_active`` (churn), ``is_alive`` (faults), ``advance_to``
        (clocked layers).  A plain :class:`RadioNetwork` degrades to the
        static case.
    process:
        The streaming arrival process; it carries its own RNG.
    batch_policy:
        When to dispatch the queued backlog
        (:class:`~repro.dynamic.policies.BatchPolicy`).  The deadline
        anchor passed as ``queue_first_time`` is the round the backlog
        last became non-empty, **not** the oldest queued arrival — under
        ``drop_oldest`` the oldest arrival advances every eviction,
        which lets :class:`SizeThresholdPolicy`'s ``max_wait`` deadline
        recede forever (the starvation regression pinned in the tests).
    policy / params / seed / depth_bound:
        See :class:`ContinuousPolicy` /
        :class:`~repro.core.config.AlgorithmParameters`.
    quarantined:
        Identities convicted before this run (carried convictions).
        They are barred from arrivals, trees, elections, handoffs, and
        the delivery audience from round 0 — the cross-run persistence
        the ``no_blacklist_escape`` oracle audits.
    forgetful_quarantine:
        Planted-bug switch (the ``amnesiac_blacklist`` ablation): the
        quarantine registry erases a conviction when the convict
        departs, so the identity launders itself by re-joining.  Never
        set it outside tests.

    When ``network`` carries a
    :class:`~repro.resilience.byzantine.ByzantineSet` (discovered via
    duck typing, as the supervisor does), the driver threads the PR-3
    machinery through every dispatch: authenticated collection and
    dissemination with per-batch blacklists, election cross-validation
    of forged claims, and authenticated join admission for churn-time
    insiders (Sybil/replayed joins, forged catch-up claims, re-join
    laundering).  With no insiders and no carried quarantine the run is
    bit-identical to the pre-insider driver.
    """

    def __init__(
        self,
        network,
        process: ArrivalProcess,
        batch_policy: Optional[BatchPolicy] = None,
        policy: Optional[ContinuousPolicy] = None,
        params: Optional[AlgorithmParameters] = None,
        seed: SeedLike = None,
        depth_bound: Optional[int] = None,
        quarantined: Sequence[int] = (),
        forgetful_quarantine: bool = False,
    ):
        self.net = network
        self.process = process
        self.batch_policy = batch_policy or ImmediatePolicy()
        self.policy = policy or ContinuousPolicy()
        if params is None:
            # Stage 3 is sized for *unknown* k; a continuous dispatch
            # knows its batch is at most max_batch, so the default
            # shrinks the initial estimate and skips the MSPG pass
            # (~2.5x fewer rounds per dispatch; a too-small estimate
            # merely costs one doubling phase, never correctness).
            params = AlgorithmParameters().with_overrides(
                collection_estimate_factor=0.25, mspg_enabled=False,
            )
        self.params = params
        self.rng = make_rng(seed)
        self.depth_bound = depth_bound or network.diameter
        self.quarantined = frozenset(
            int(v) for v in quarantined if 0 <= int(v) < network.n
        )
        self.forgetful_quarantine = bool(forgetful_quarantine)
        self.byz = getattr(network, "byzantine", None)
        if self.byz is not None:
            self.byz.configure(
                integrity_key=self.params.integrity_key,
                auth_master_key=self.params.auth_master_key,
                authentication=self.params.authentication,
            )
        #: identities excluded from every delivery path: the active
        #: quarantine plus present-but-unadmitted joiners (maintained
        #: by run(); empty on the default path)
        self._barred: Set[int] = set(self.quarantined)

    # -- duck-typed layer queries --------------------------------------

    def _present(self, v: int) -> bool:
        f = getattr(self.net, "is_present", None)
        return True if f is None else bool(f(v))

    def _alive(self, v: int) -> bool:
        f = getattr(self.net, "is_alive", None)
        if f is not None:
            return bool(f(v))
        return self._present(v)

    def _usable(self, v: int) -> bool:
        return (
            v not in self._barred
            and self._present(v)
            and self._alive(v)
        )

    def _edge_usable(self, u: int, v: int) -> bool:
        f = getattr(self.net, "edge_active", None)
        if f is not None:
            return bool(f(u, v))
        return bool(self.net.has_edge(u, v))

    def _sync(self, now: int) -> None:
        f = getattr(self.net, "advance_to", None)
        if f is not None:
            f(now)

    # ------------------------------------------------------------------

    def run(self, horizon: int) -> ContinuousResult:
        """Run for ``horizon`` rounds; no final flush — whatever is
        queued at the end is reported as in-flight."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        # deferred: repro.resilience pulls in the chaos package, which
        # imports this module — a top-level import would be circular
        from repro.resilience.repair import (
            attached_set,
            default_repair_epochs,
            repair_tree,
        )
        from repro.resilience.admission import (
            NEVER_PRESENT,
            AdmissionController,
            JoinRequest,
            QuarantineRegistry,
            insider_join_attack,
        )

        net, policy = self.net, self.policy
        n = net.n
        cap = policy.queue_capacity
        byz = self.byz
        byz_nodes = frozenset(byz.nodes) if byz is not None else frozenset()
        auth = bool(self.params.authentication)

        registry = QuarantineRegistry(
            carried=self.quarantined,
            forgetful=self.forgetful_quarantine,
        )
        admission = AdmissionController(
            registry, master=self.params.auth_master_key
        )
        rejected_admission: Set[int] = set()
        last_departed: Dict[int, int] = {}
        self._barred = set(registry.active)

        queues: Dict[int, List[QueuedPacket]] = {v: [] for v in range(n)}
        backlog = 0
        backlog_since = 0  # round the backlog last became non-empty
        log: List[AuditEvent] = []
        deliveries: List[Tuple[int, int, int]] = []
        histogram: Dict[int, int] = {}
        joiners: Dict[int, JoinerRecord] = {}
        # pid -> nodes known to have decoded it: receivers keep decoded
        # packets, so a retried batch only owes the nodes still missing
        # it — without this, churn that never leaves a full-membership
        # window between outages (the adversarial schedules are built to
        # do exactly that) starves every delivery forever
        known_holders: Dict[int, Set[int]] = {}

        counters = {
            "delivered": 0, "dropped_queue": 0, "dropped_handoff": 0,
            "dropped_retry": 0, "rejected": 0, "handoffs": 0,
            "dispatches": 0, "restructures": 0, "repairs": 0,
            "dropped_quarantine": 0, "mis_decodes": 0,
            "byzantine_rx_discarded": 0, "forged_acks_rejected": 0,
            "poisoned_rows_attributed": 0,
        }
        max_queue_len = 0
        max_cycle = 0
        slo_violations = 0

        now = 0
        absorbed_until = 0
        leader = -1
        parent: Optional[List[int]] = None
        distance: Optional[List[int]] = None
        prev_present = {v for v in range(n) if self._present(v)}
        repair_budget = (
            default_repair_epochs(net, policy.repair_epoch_factor)
        )

        def refresh_barred() -> None:
            """Re-derive the exclusion set from its two sources."""
            self._barred = set(registry.active) | rejected_admission

        def convict(nodes, reason: str) -> None:
            """Quarantine ``nodes``, purging their queued packets.

            Purged packets are charged to ``dropped_quarantine`` with a
            queue-removing ``dropped_quarantine`` audit event (the
            mid-dispatch analogue, ``drop_quarantine``, never touches a
            queue — mirroring dropped_handoff vs drop_handoff).
            """
            nonlocal backlog
            for v in sorted(set(int(u) for u in nodes)):
                if not registry.convict(v, now, reason):
                    continue
                purged = queues[v]
                queues[v] = []
                backlog -= len(purged)
                for item in purged:
                    counters["dropped_quarantine"] += 1
                    note("dropped_quarantine", v, item.packet.pid,
                         item.arrival_round)
            refresh_barred()

        def note(kind: str, node: int, pid: int, arrival: int = -1,
                 at: Optional[int] = None) -> None:
            log.append(AuditEvent(
                round=now if at is None else at, kind=kind, node=node,
                pid=pid, arrival_round=arrival,
            ))

        def enqueue(item: QueuedPacket, bucket: str) -> bool:
            """Admit ``item`` to its owner's queue under the drop
            policy; returns False when the *item itself* was not
            admitted.  ``bucket`` names the drop counter charged on
            overflow ("dropped_queue" for arrivals/requeues,
            "dropped_handoff" for handoffs)."""
            nonlocal backlog, backlog_since, max_queue_len
            q = queues[item.owner]
            # capture before any eviction: a drop_oldest pop transiently
            # empties a capacity-1 backlog, and resetting the deadline
            # anchor on that transient would let SizeThresholdPolicy's
            # max_wait recede one arrival at a time (starvation)
            was_empty = backlog == 0
            if len(q) >= cap:
                if policy.drop_policy == "reject":
                    counters["rejected"] += 1
                    note("reject", item.owner, item.packet.pid,
                         item.arrival_round)
                    return False
                if policy.drop_policy == "drop_newest":
                    counters[bucket] += 1
                    note(bucket, item.owner, item.packet.pid,
                         item.arrival_round)
                    return False
                # drop_oldest: evict the head to admit the newcomer
                evicted = q.pop(0)
                backlog -= 1
                counters[bucket] += 1
                note(bucket, evicted.owner, evicted.packet.pid,
                     evicted.arrival_round)
            if was_empty:
                backlog_since = now
            q.append(item)
            backlog += 1
            max_queue_len = max(max_queue_len, len(q))
            note("enqueue", item.owner, item.packet.pid,
                 item.arrival_round)
            return True

        def absorb(up_to: int) -> None:
            """Draw arrivals for rounds [absorbed_until, up_to)."""
            nonlocal absorbed_until
            for r in range(absorbed_until, up_to):
                pool = [v for v in range(n) if self._usable(v)]
                for pkt in self.process.draw(r, pool):
                    note("arrive", pkt.origin, pkt.pid, r, at=r)
                    enqueue(
                        QueuedPacket(pkt, arrival_round=r,
                                     owner=pkt.origin),
                        "dropped_queue",
                    )
            absorbed_until = max(absorbed_until, up_to)

        def handle_departures() -> None:
            """Hand a departed node's queue to its smallest-id usable
            neighbor with room; overflow is an explicit drop."""
            nonlocal backlog
            present = {v for v in range(n) if self._present(v)}
            for v in sorted(prev_present - present):
                if not queues[v]:
                    continue
                heirs = sorted(
                    int(u) for u in net.neighbors(v)
                    if self._usable(int(u))
                )
                moved = queues[v]
                queues[v] = []
                backlog -= len(moved)
                for item in moved:
                    placed = False
                    for heir in heirs:
                        if len(queues[heir]) < cap:
                            counters["handoffs"] += 1
                            note("handoff", heir, item.packet.pid,
                                 item.arrival_round)
                            enqueue(
                                QueuedPacket(
                                    item.packet, item.arrival_round,
                                    owner=heir,
                                    attempts=item.attempts,
                                ),
                                "dropped_handoff",
                            )
                            placed = True
                            break
                    if not placed:
                        counters["dropped_handoff"] += 1
                        note("drop_handoff", v, item.packet.pid,
                             item.arrival_round)
            for v in sorted(prev_present - present):
                last_departed[v] = now
                rejected_admission.discard(v)
                registry.on_leave(v, now)  # forgetful registries forget
            if prev_present - present:
                refresh_barred()
            for v in sorted(present - prev_present):
                admitted = review_join(v)
                rec = joiners.get(v)
                if rec is None or rec.departed_again or not admitted:
                    joiners[v] = JoinerRecord(
                        node=v, join_round=now, rejected=not admitted,
                    )
            for v in sorted(prev_present - present):
                rec = joiners.get(v)
                if rec is not None and rec.attach_round is None:
                    rec.departed_again = True
            prev_present.clear()
            prev_present.update(present)

        def review_join(v: int) -> bool:
            """Admit or reject one (re-)joining identity.

            Insiders present forged requests per their deterministic
            attack; honest joiners present valid ones.  Provable
            forgeries (bad signature, stale credential, lying catch-up
            claim) convict the physical joiner; a quarantined identity
            is turned away without a fresh conviction (laundering
            blocked).  Without authentication only the quarantine
            check applies — crypto rejections need keys.
            """
            expected = last_departed.get(v, NEVER_PRESENT)
            if auth and byz is not None and v in byz_nodes:
                request = JoinRequest.forged(
                    v, now, insider_join_attack(v),
                    last_departed=expected,
                    master=self.params.auth_master_key,
                )
            else:
                request = JoinRequest.honest(
                    v, now, expected,
                    master=self.params.auth_master_key,
                )
            if not auth:
                # no keys: the gate can only enforce the quarantine
                if registry.is_quarantined(v):
                    rejected_admission.add(v)
                    refresh_barred()
                    return False
                return True
            record = admission.review(request, now, expected)
            if record.admitted:
                rejected_admission.discard(v)
                refresh_barred()
                return True
            rejected_admission.add(v)
            if record.reason in ("sybil", "replay", "catchup_forged"):
                convict([v], f"join admission: {record.reason}")
            refresh_barred()
            return False

        def charge(rounds: int) -> None:
            nonlocal now
            now += rounds
            self._sync(now)

        def structure_valid() -> bool:
            if parent is None or distance is None:
                return False
            if leader < 0 or not self._usable(leader):
                return False
            for v in range(n):
                if v == leader or not self._usable(v):
                    continue
                p = parent[v]
                if distance[v] < 0 or p < 0:
                    return False
                if not self._usable(p):
                    return False
                if not self._edge_usable(v, p):
                    return False
            return True

        def detach_invalid() -> None:
            """Detach nodes whose parent pointer is no longer usable so
            the repair pass re-adopts them."""
            for v in range(n):
                if v == leader:
                    continue
                p = parent[v]
                if p < 0:
                    continue
                if (not self._usable(p)
                        or not self._edge_usable(v, p)
                        or distance[p] < 0):
                    parent[v] = -1
                    distance[v] = -1

        def mark_attached() -> None:
            """Record attach rounds for joiners now on the tree."""
            att = attached_set(parent, distance, leader, self._usable)
            for v, rec in joiners.items():
                if rec.attach_round is None and not rec.departed_again \
                        and v in att:
                    rec.attach_round = now

        def restructure() -> bool:
            """Full rebuild: elect among usable nodes, then BFS.

            Election claims are cross-validated against the certified
            id table exactly as in the supervisor: under authentication
            a forged (out-of-range) claim convicts its signer; without
            it the inflated claim captures the election (the id-
            inflation black hole — the degradation the threat model
            documents).
            """
            nonlocal leader, parent, distance
            counters["restructures"] += 1
            candidates = [v for v in range(n) if self._usable(v)]
            if not candidates:
                leader, parent, distance = -1, None, None
                return False
            election = elect_leader(
                net, candidates, self.rng,
                epochs_per_probe=self.params.bgi_epochs(net),
            )
            charge(election.rounds)
            forged = (
                byz.election_claims(n, self._usable)
                if byz is not None else []
            )
            winner = -1
            if forged and auth:
                convict(
                    (v for v, claimed in forged if claimed != v),
                    "forged leadership claim",
                )
                verified = [
                    c for c in election.claimants if self._usable(c)
                ]
                if len(verified) == 1:
                    winner = verified[0]
            elif forged:
                all_claims = [
                    (c, c) for c in election.claimants if self._usable(c)
                ] + [
                    (v, cid) for v, cid in forged
                    if self._present(v) and self._alive(v)
                ]
                if all_claims:
                    winner = max(all_claims, key=lambda vc: vc[1])[0]
            elif len(election.claimants) == 1 \
                    and self._usable(election.claimants[0]):
                winner = election.claimants[0]
            if winner < 0:
                leader, parent, distance = -1, None, None
                return False
            leader = winner
            if byz is not None:
                byz.notice_leader(leader)
            bfs = build_distributed_bfs(
                net, leader, self.rng,
                depth_bound=self.depth_bound,
                epochs_per_phase=self.params.bfs_epochs(net),
            )
            charge(bfs.rounds)
            parent, distance = list(bfs.parent), list(bfs.distance)
            if self._barred:
                # BFS may have adopted a barred node as an interior
                # parent; detach its honest children and route around
                # it before the structure is used
                detach_invalid()
                att = attached_set(parent, distance, leader, self._usable)
                orphans = [
                    v for v in range(n)
                    if self._usable(v) and v not in att
                ]
                if orphans and self._usable(leader):
                    counters["repairs"] += 1
                    rep = repair_tree(
                        net, parent, distance, leader, self.rng,
                        epochs=repair_budget,
                        round_offset=now,
                        exclude=frozenset(self._barred),
                        mute=frozenset(self._barred),
                    )
                    charge(rep.rounds)
                    parent, distance = rep.parent, rep.distance
            mark_attached()
            return True

        def heal() -> bool:
            """Invariant check → incremental repair → restructure only
            as a last resort.  True when a usable structure stands."""
            nonlocal parent, distance
            if structure_valid():
                mark_attached()
                return True
            if (parent is not None and leader >= 0
                    and self._usable(leader)):
                detach_invalid()
                att = attached_set(
                    parent, distance, leader, self._usable
                )
                orphans = [
                    v for v in range(n)
                    if self._usable(v) and v not in att
                ]
                if orphans:
                    counters["repairs"] += 1
                    rep = repair_tree(
                        net, parent, distance, leader, self.rng,
                        epochs=repair_budget,
                        round_offset=now,
                        exclude=frozenset(self._barred),
                        mute=frozenset(self._barred),
                    )
                    charge(rep.rounds)
                    parent, distance = rep.parent, rep.distance
                if structure_valid():
                    mark_attached()
                    return True
            return restructure()

        def dispatch() -> None:
            """Run one collection + dissemination cycle on the backlog."""
            nonlocal backlog
            counters["dispatches"] += 1

            batch: List[QueuedPacket] = []
            for v in sorted(queues):
                if not self._usable(v):
                    continue
                if v != leader and (parent is None or parent[v] < 0):
                    # usable but detached (e.g. partitioned beyond the
                    # repair pass's reach): collection cannot route from
                    # here — its packets wait for a heal to adopt it
                    continue
                batch.extend(queues[v])
            batch.sort(key=lambda it: (it.arrival_round, it.packet.pid))
            batch = batch[:policy.max_batch]
            if not batch:
                return
            for item in batch:
                queues[item.owner].remove(item)
                backlog -= 1
                note("dispatch", item.owner, item.packet.pid,
                     item.arrival_round)

            def requeue(item: QueuedPacket) -> None:
                if item.owner in self._barred:
                    # owner convicted mid-cycle: its traffic does not
                    # re-enter the queues (drop_quarantine never touches
                    # a queue — the item is in flight here)
                    counters["dropped_quarantine"] += 1
                    note("drop_quarantine", item.owner, item.packet.pid,
                         item.arrival_round)
                    known_holders.pop(item.packet.pid, None)
                    return
                item.attempts += 1
                if item.attempts >= policy.max_attempts:
                    counters["dropped_retry"] += 1
                    note("drop_retry", item.owner, item.packet.pid,
                         item.arrival_round)
                    known_holders.pop(item.packet.pid, None)
                    return
                note("requeue", item.owner, item.packet.pid,
                     item.arrival_round)
                enqueue(item, "dropped_queue")

            # Re-home handed-off packets: the stages route from the
            # packet's origin field, which must be its current owner.
            to_send: List[Tuple[QueuedPacket, Packet]] = []
            for item in batch:
                pkt = item.packet
                if pkt.origin != item.owner:
                    pkt = replace(pkt, origin=item.owner)
                to_send.append((item, pkt))

            root_items = [
                (it, pkt) for it, pkt in to_send if pkt.origin == leader
            ]
            field_items = [
                (it, pkt) for it, pkt in to_send if pkt.origin != leader
            ]
            collected: List[Tuple[QueuedPacket, Packet]] = list(root_items)
            if field_items:
                collection = run_collection_stage(
                    net, parent, distance, leader,
                    [pkt for _, pkt in field_items],
                    self.params, self.rng,
                    depth_bound=self.depth_bound,
                    blacklist=frozenset(self._barred),
                )
                charge(collection.rounds)
                counters["forged_acks_rejected"] += (
                    collection.forged_acks_rejected
                )
                counters["byzantine_rx_discarded"] += (
                    collection.byzantine_rx_discarded
                )
                if collection.flagged:
                    convict(collection.flagged, "collection audit")
                got = set(collection.collected_order)
                for it, pkt in field_items:
                    if pkt.pid in got and it.owner not in self._barred:
                        collected.append((it, pkt))
                    else:
                        requeue(it)
            if leader < 0 or not self._usable(leader):
                # leader vanished mid-cycle: nothing can disseminate;
                # everything gathered goes back to the queues
                for it, _ in collected:
                    requeue(it)
                return
            if not collected:
                return

            ordered = [pkt for _, pkt in collected]
            safe_distance = [d if d >= 0 else 1 for d in distance]
            safe_distance[leader] = 0
            dissemination = run_dissemination_stage(
                net, safe_distance, leader, ordered,
                self.params, self.rng,
                blacklist=frozenset(self._barred),
            )
            charge(dissemination.rounds)
            counters["mis_decodes"] += dissemination.mis_decodes
            counters["byzantine_rx_discarded"] += (
                dissemination.byzantine_rx_discarded
            )
            counters["poisoned_rows_attributed"] += (
                dissemination.poisoned_rows_attributed
            )
            if dissemination.flagged_senders:
                convict(
                    dissemination.flagged_senders,
                    "poisoned row attributed",
                )

            width = dissemination.group_width
            audience = [v for v in range(n) if self._usable(v)]
            for i, (item, pkt) in enumerate(collected):
                if item.owner in self._barred:
                    # convicted during this very cycle (e.g. its row
                    # poison was attributed): its traffic dies with it
                    counters["dropped_quarantine"] += 1
                    note("drop_quarantine", item.owner, item.packet.pid,
                         item.arrival_round)
                    continue
                j = i // width
                holders = {
                    int(v) for v in np.nonzero(
                        dissemination.has_group[:, j]
                    )[0]
                }
                holders.add(pkt.origin)
                holders.add(leader)
                # receivers keep what they decode: union this cycle's
                # holders with every earlier attempt's, so a retry only
                # owes the nodes still missing the packet
                holders |= known_holders.get(pkt.pid, set())
                known_holders[pkt.pid] = holders
                if all(v in holders for v in audience):
                    known_holders.pop(pkt.pid, None)
                    counters["delivered"] += 1
                    latency = now - item.arrival_round
                    deliveries.append(
                        (pkt.pid, item.arrival_round, now)
                    )
                    b = latency_bucket(latency)
                    histogram[b] = histogram.get(b, 0) + 1
                    note("deliver", pkt.origin, pkt.pid,
                         item.arrival_round)
                else:
                    requeue(item)

        # ---- main loop -------------------------------------------------
        self._sync(0)
        heal()
        last_check = now
        while now < horizon:
            self._sync(now)
            absorb(min(now + 1, horizon))
            handle_departures()
            if now - last_check >= policy.check_interval:
                heal()
                last_check = now
            if backlog > 0:
                due = self.batch_policy.dispatch_time(
                    backlog_since, backlog, now
                )
                if due <= now:
                    cycle_start = now
                    if heal():
                        dispatch()
                        last_check = now
                    max_cycle = max(max_cycle, now - cycle_start)
                    if now == cycle_start:
                        now += 1  # structure-less: don't spin in place
                    continue
            now += 1

        self._sync(now)
        # arrivals in rounds the final dispatch skipped past are still
        # pre-horizon traffic: draw them so the books close exactly
        absorb(horizon)
        handle_departures()
        in_flight = sum(len(q) for q in queues.values())
        slo_violations = sum(
            1 for _, a, d in deliveries if d - a > policy.slo_rounds
        )
        repair_rounds_cap = repair_budget * decay_slots(net.max_degree)
        runtime_convicted = {v for v, _, _ in registry.convictions}
        mis_attributions = len(
            runtime_convicted - byz_nodes - registry.carried
        )

        return ContinuousResult(
            rounds=now,
            arrivals=self.process.total_emitted,
            delivered=counters["delivered"],
            dropped_queue=counters["dropped_queue"],
            dropped_handoff=counters["dropped_handoff"],
            dropped_retry=counters["dropped_retry"],
            rejected=counters["rejected"],
            in_flight=in_flight,
            dispatches=counters["dispatches"],
            restructures=counters["restructures"],
            repairs=counters["repairs"],
            handoffs=counters["handoffs"],
            max_queue_len=max_queue_len,
            max_cycle_rounds=max_cycle,
            repair_round_budget=repair_rounds_cap,
            slo_rounds=policy.slo_rounds,
            slo_violations=slo_violations,
            latency_histogram=histogram,
            deliveries=deliveries,
            joiners=sorted(joiners.values(), key=lambda r: r.node),
            audit_log=log,
            queue_capacity=cap,
            dropped_quarantine=counters["dropped_quarantine"],
            mis_decodes=counters["mis_decodes"],
            mis_attributions=mis_attributions,
            byzantine_rx_discarded=counters["byzantine_rx_discarded"],
            forged_acks_rejected=counters["forged_acks_rejected"],
            poisoned_rows_attributed=counters["poisoned_rows_attributed"],
            convictions=list(registry.convictions),
            quarantined_carried=sorted(registry.carried),
            quarantine_final=sorted(registry.active),
            quarantine_history=registry.history_json(),
            admission_log=admission.log_json(),
            admission_counters=dict(admission.counters),
        )
