"""Self-healing supervision of the four-stage broadcast.

:class:`SupervisedBroadcast` wraps the paper's pipeline (election → BFS →
collection → dissemination) with the recovery machinery the paper's
static fault-free model never needed:

- **watchdog budgets** — every stage has a round budget derived from the
  paper's own bounds (Fact 1, Theorem 1, Lemma 5, Lemma 7) times a
  safety factor; the total budget is finite by construction, so a run
  *terminates* within it instead of hanging, no matter what the fault
  schedule does;
- **bounded retry with exponential backoff** — a failed stage attempt is
  retried with an escalated epoch budget after an exponentially growing
  idle wait (during which scheduled recoveries can land);
- **leader re-election** — if the elected root crashes mid-run, the
  survivors re-elect among the alive packet holders and re-run the
  pipeline for the packets still outstanding (origins keep their
  packets, so re-collection is possible);
- **BFS-tree repair** — when interior tree nodes die, orphaned subtrees
  are re-parented by a short Decay announcement epoch
  (:mod:`repro.resilience.repair`) before collection or dissemination is
  retried;
- **detection-driven escalation** — when a dissemination attempt falls
  short and the evidence points at an active adversary (the hardened
  decoders quarantined corrupted rows, or the fault layer logged
  jamming-consistent reception losses during the attempt), the retry
  re-runs the epoch with exponentially deepened Decay schedules and
  re-requests the still-undelivered groups through the normal retry
  path; mis-decoded deliveries (possible only with integrity checks
  disabled) are never counted as delivered;
- **quorum-audited insider recovery** — with per-node authentication
  enabled, cryptographically attributed misbehavior (forged leadership
  claims, BFS layer lies, forged ACKs, poisoned coded rows) *convicts*
  the sender: it is blacklisted, its traffic ignored, its packets
  declared lost, and elections re-run without it.  Silent black holes
  leave no such evidence, so a statistical path audit promotes repeat
  offenders to *suspects* that are routed around — but never convicted,
  keeping ``mis_attributions`` at zero by construction.

Metrics are honest: a packet whose origin dies before any surviving root
collected it is *lost* (reported, not hidden), and ``informed_fraction``
is measured over surviving nodes and non-lost packets.

A fault-free supervised run consumes the RNG in exactly the same order
as :class:`repro.core.multibroadcast.MultipleMessageBroadcast`, so with
an empty schedule the two produce identical executions — supervision is
free until something breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.packets import Packet
from repro.core.collection import grab_schedule, run_collection_stage
from repro.core.config import AlgorithmParameters
from repro.core.dissemination import run_dissemination_stage
from repro.primitives.bfs import build_distributed_bfs
from repro.primitives.decay import decay_slots
from repro.primitives.leader_election import elect_leader
from repro.radio.rng import SeedLike, make_rng
from repro.radio.trace import RoundTrace
from repro.resilience.network import DynamicFaultNetwork
from repro.resilience.repair import (
    TreeRepairResult,
    attached_set,
    default_repair_epochs,
    repair_tree,
)
from repro.resilience.schedule import FaultSchedule


@dataclass(frozen=True)
class SupervisionPolicy:
    """Watchdog, retry, and repair knobs.

    Attributes
    ----------
    stage_timeout_factor:
        Safety multiplier on the total watchdog budget.  The per-stage
        formulas below are already worst-case, so 1.0 is a hard bound;
        the default leaves modest slack for future engine changes.
    max_stage_retries:
        Extra attempts per stage after the first (0 = no retry).
    max_reelections:
        How many times a crashed leader may be replaced before the run
        gives up (each replacement restarts the pipeline for the
        outstanding packets).
    backoff_rounds / backoff_base:
        Retry ``i`` waits ``backoff_rounds * backoff_base**i`` idle
        rounds before re-attempting (exponential backoff; recoveries
        scheduled during the wait take effect).
    budget_escalation:
        Epoch-budget multiplier applied per retry (attempt ``i`` runs
        with ``ceil(base * budget_escalation**i)`` epochs).
    repair_epoch_factor:
        Decay-epoch budget factor for one tree-repair pass,
        ``factor * (D + log2 n)`` epochs.
    collection_phase_cap:
        Cap on Stage 3's estimate-doubling phases per attempt — under
        faults the doubling loop is the one unbounded-looking piece, and
        the cap turns it into a fixed-length attempt the watchdog can
        account for.
    enable_tree_repair:
        Ablation switch for the Decay-based tree repair pass.  ``False``
        leaves orphaned subtrees detached after interior crashes — the
        known-broken configuration the chaos fuzzer
        (:mod:`repro.resilience.chaos`) must catch and shrink to a
        minimal crash; production code never turns it off.
    audit_quorum:
        Quorum for the collection path audit (authenticated runs only):
        an interior tree node is promoted to *routing suspect* — routed
        around, never blacklisted — once it sits on the failing
        origin→root path of at least this many un-collected packets
        while appearing on no succeeding path.  Silent black holes leave
        no cryptographic evidence, so suspicion is statistical; the
        quorum keeps one unlucky collision streak from triggering it.
    """

    stage_timeout_factor: float = 1.25
    max_stage_retries: int = 2
    max_reelections: int = 2
    backoff_rounds: int = 32
    backoff_base: float = 2.0
    budget_escalation: float = 1.5
    repair_epoch_factor: float = 2.0
    collection_phase_cap: int = 8
    enable_tree_repair: bool = True
    audit_quorum: int = 2

    # -- per-stage worst-case round formulas ---------------------------

    def escalated(self, base: int, attempt: int) -> int:
        """Epoch budget for the given retry attempt (0 = first try)."""
        return max(1, math.ceil(base * self.budget_escalation ** attempt))

    def backoff_wait(self, attempt: int) -> int:
        """Idle rounds to wait before retry ``attempt`` (1-based)."""
        return max(1, math.ceil(
            self.backoff_rounds * self.backoff_base ** (attempt - 1)
        ))

    def election_rounds(self, network, params: AlgorithmParameters,
                        id_bound: int, attempt: int = 0) -> int:
        probes = max(1, math.ceil(math.log2(max(id_bound, 2))))
        epochs = self.escalated(params.bgi_epochs(network), attempt)
        return probes * epochs * decay_slots(network.max_degree)

    def bfs_rounds(self, network, params: AlgorithmParameters,
                   depth_bound: int, attempt: int = 0) -> int:
        epochs = self.escalated(params.bfs_epochs(network), attempt)
        return depth_bound * epochs * decay_slots(network.max_degree)

    def collection_rounds(self, network, params: AlgorithmParameters,
                          depth_bound: int) -> int:
        """Worst-case Stage-3 rounds with the phase cap: exact arithmetic
        over the engine's own fixed-length procedure schedule."""
        wf = max(1, int(params.ospg_window_factor))
        c_log_n = params.c_log_n(network.n)
        alarm = params.bgi_epochs(network) * decay_slots(network.max_degree)

        def procedure(window: int) -> int:
            t1 = window + depth_bound
            return t1 + 3 * t1 + depth_bound

        total = 0
        x = params.initial_collection_estimate(network, depth_bound)
        phases = 0
        cap = min(self.collection_phase_cap, params.max_collection_phases)
        while phases < cap:
            phases += 1
            for y in grab_schedule(x, c_log_n):
                total += procedure(wf * y)
            if params.mspg_enabled:
                total += procedure(wf * c_log_n * c_log_n)
            total += alarm
            x *= 2
            if x > params.max_k_estimate(network.n):
                break
        return total

    def dissemination_rounds(self, network, params: AlgorithmParameters,
                             k: int, attempt: int = 0) -> int:
        """Worst-case Stage-4 rounds: repaired trees can be deeper than
        the true BFS tree, so the eccentricity is bounded by n-1."""
        width = params.group_width(network.n)
        g = max(1, math.ceil(k / width))
        epochs = self.escalated(params.forward_epochs(width), attempt)
        phase_len = max(width, epochs * decay_slots(network.max_degree))
        ecc_bound = max(1, network.n - 1)
        return (params.group_spacing * (g - 1) + ecc_bound) * phase_len

    def repair_rounds(self, network) -> int:
        epochs = default_repair_epochs(network, self.repair_epoch_factor)
        return epochs * decay_slots(network.max_degree)

    def total_round_budget(self, network, params: AlgorithmParameters,
                           k: int, depth_bound: int,
                           id_bound: Optional[int] = None) -> int:
        """The global watchdog budget: the sum of every attempt the
        supervisor could ever make.  Actual executions are a subset of
        those attempts and every attempt's length is bounded by its
        formula, so ``total_rounds <= budget`` holds by construction."""
        if id_bound is None:
            id_bound = network.n
        attempts = self.max_stage_retries + 1
        per_cycle = 0
        for a in range(attempts):
            per_cycle += self.election_rounds(network, params, id_bound, a)
            per_cycle += self.bfs_rounds(network, params, depth_bound, a)
            per_cycle += self.dissemination_rounds(network, params, k, a)
        per_cycle += attempts * self.collection_rounds(
            network, params, depth_bound
        )
        # one repair pass may precede every collection/dissemination attempt
        per_cycle += 2 * attempts * self.repair_rounds(network)
        # backoff waits between attempts of the four stages
        per_cycle += 4 * sum(
            self.backoff_wait(a) for a in range(1, attempts)
        )
        cycles = self.max_reelections + 1
        return math.ceil(
            max(1.0, self.stage_timeout_factor) * cycles * per_cycle
        )


@dataclass
class StageAttempt:
    """One attempt at one stage (retries get their own entries)."""

    stage: str
    cycle: int
    attempt: int
    rounds: int
    ok: bool
    detail: str = ""


@dataclass
class SupervisedResult:
    """End-to-end outcome of a supervised run.

    ``success`` means every surviving node knows every non-lost packet,
    no watchdog tripped, and not everything was lost.
    ``informed_fraction`` is measured over surviving non-blacklisted
    nodes and non-lost packets (1.0 = full recovery); ``coverage`` is
    the fraction of the original k that was not lost to origin crashes
    or origin blacklisting.

    ``blacklisted`` nodes were *convicted* on cryptographic evidence (a
    verified hop signature wrapping invalid inner content);
    ``suspected`` nodes were only statistically implicated by the
    collection path audit and are routed around, never convicted.
    ``mis_attributions`` counts blacklisted nodes that were in fact
    honest — the attribution rule is designed to keep this at zero.
    ``all_lost`` reports the explicit dead end where every packet was
    lost (origins crashed or blacklisted before collection).
    """

    n: int
    k: int
    success: bool
    informed_fraction: float
    coverage: float
    leader: int
    total_rounds: int
    round_budget: int
    watchdog_tripped: bool
    timing: Dict[str, int]
    attempts: List[StageAttempt] = field(repr=False, default_factory=list)
    repairs: List[TreeRepairResult] = field(repr=False, default_factory=list)
    reelections: int = 0
    retries: int = 0
    packets_lost: List[int] = field(default_factory=list)
    packets_undelivered: List[int] = field(default_factory=list)
    survivors: List[int] = field(repr=False, default_factory=list)
    fault_stats: Dict[str, int] = field(default_factory=dict)
    corrupt_discarded: int = 0
    mis_decodes: int = 0
    timeline: List[Tuple[int, str]] = field(repr=False, default_factory=list)
    trace: Optional[RoundTrace] = field(repr=False, default=None)
    blacklisted: List[int] = field(default_factory=list)
    suspected: List[int] = field(default_factory=list)
    byzantine_rx_discarded: int = 0
    forged_acks_rejected: int = 0
    poisoned_rows_attributed: int = 0
    mis_attributions: int = 0
    all_lost: bool = False

    @property
    def repairs_run(self) -> int:
        return len(self.repairs)


class SupervisedBroadcast:
    """Run the four-stage broadcast under a fault schedule, self-healing.

    Parameters
    ----------
    network:
        A plain network (wrapped together with ``schedule`` into a
        :class:`DynamicFaultNetwork`) or an existing
        :class:`DynamicFaultNetwork`.
    schedule:
        Fault timeline; only valid when ``network`` is not already
        wrapped.
    params / seed / depth_bound / node_ids:
        As in :class:`repro.core.multibroadcast.MultipleMessageBroadcast`.
    policy:
        The :class:`SupervisionPolicy` (watchdog/retry/repair knobs).
    adversary:
        Optional :class:`repro.resilience.adversary.Adversary` applied
        through the fault network (only when ``network`` is not already
        wrapped).  ``None`` keeps the run bit-identical to the plain
        engine's RNG stream.
    byzantine:
        Optional :class:`repro.resilience.byzantine.ByzantineSet` of
        insider nodes (only when ``network`` is not already wrapped).
        The set is synced with the run's integrity configuration so the
        insiders know exactly what a protocol participant would know.
        ``None`` keeps the run bit-identical to the plain engine.
    initial_blacklist:
        Identities convicted before this run (carried quarantine).
        They are excluded from elections, repair routing, and the
        honest audience from the first round, their packets are
        reported lost with cause, and — being prior convictions — they
        never count toward ``mis_attributions``.
    """

    def __init__(
        self,
        network,
        schedule: Optional[FaultSchedule] = None,
        params: Optional[AlgorithmParameters] = None,
        policy: Optional[SupervisionPolicy] = None,
        seed: SeedLike = None,
        depth_bound: Optional[int] = None,
        keep_trace: bool = False,
        node_ids: Optional[Sequence[int]] = None,
        adversary=None,
        byzantine=None,
        initial_blacklist: Sequence[int] = (),
    ):
        if isinstance(network, DynamicFaultNetwork):
            if (schedule is not None or adversary is not None
                    or byzantine is not None):
                raise ValueError(
                    "pass the schedule/adversary/byzantine set either "
                    "inside the DynamicFaultNetwork or separately, not both"
                )
            self.net = network
        else:
            self.net = DynamicFaultNetwork(
                network, schedule or FaultSchedule(), seed=seed,
                adversary=adversary, byzantine=byzantine,
            )
        self.params = params or AlgorithmParameters()
        self.byz = getattr(self.net, "byzantine", None)
        if self.byz is not None:
            self.byz.configure(
                integrity_key=self.params.integrity_key,
                auth_master_key=self.params.auth_master_key,
                authentication=self.params.authentication,
            )
        self.policy = policy or SupervisionPolicy()
        self.rng = make_rng(seed)
        self.depth_bound = depth_bound or self.net.diameter
        self.node_ids = node_ids
        self.initial_blacklist = frozenset(
            int(v) for v in initial_blacklist
        )
        if any(not 0 <= v < self.net.n for v in self.initial_blacklist):
            raise ValueError(
                "initial_blacklist references nodes outside the network"
            )
        self.trace = RoundTrace() if keep_trace else None
        if self.trace is not None and self.net.trace is None:
            self.net.trace = self.trace

    # ------------------------------------------------------------------

    def run(self, packets: Sequence[Packet]) -> SupervisedResult:
        net, params, policy = self.net, self.params, self.policy
        rng = self.rng
        n = net.n
        k = len(packets)
        id_bound = (
            max(self.node_ids) + 1 if self.node_ids is not None else n
        )

        for p in packets:
            if not 0 <= p.origin < n:
                raise ValueError(
                    f"packet {p.pid} origin {p.origin} out of range"
                )

        budget = policy.total_round_budget(
            net, params, max(k, 1), self.depth_bound, id_bound
        )
        timing = {key: 0 for key in (
            "election", "bfs", "collection", "dissemination",
            "repair", "backoff",
        )}
        attempts: List[StageAttempt] = []
        repairs: List[TreeRepairResult] = []
        timeline: List[Tuple[int, str]] = []
        self._rounds = 0
        watchdog = [False]

        by_pid = {p.pid: p for p in packets}
        pid_col = {p.pid: i for i, p in enumerate(packets)}
        origin_of = {p.pid: p.origin for p in packets}
        knows = np.zeros((n, max(k, 1)), dtype=bool)
        for p in packets:
            knows[p.origin, pid_col[p.pid]] = True

        remaining: Set[int] = set(by_pid)
        lost: Set[int] = set()
        leader = -1
        reelections = -1  # first election is not a re-election
        corrupt_discarded_total = 0
        mis_decodes_total = 0

        byz = self.byz
        auth = params.authentication
        blacklist: Set[int] = set(self.initial_blacklist)
        suspects: Set[int] = set()
        suspicion: Dict[int, int] = {}
        byz_rx_discarded_total = 0
        forged_acks_total = 0
        poisoned_rows_total = 0

        def note(text: str) -> None:
            timeline.append((self._rounds, text))

        def convict(nodes, reason: str) -> None:
            """Blacklist nodes caught on cryptographic evidence."""
            fresh = sorted(set(nodes) - blacklist)
            if not fresh:
                return
            blacklist.update(fresh)
            suspects.difference_update(fresh)
            note(f"blacklist: nodes {fresh} ({reason})")

        def certified_id(v: int) -> int:
            return self.node_ids[v] if self.node_ids is not None else v

        if self.initial_blacklist:
            note(
                f"blacklist: carried convictions "
                f"{sorted(self.initial_blacklist)} (persistent quarantine)"
            )

        def interior_path(parent, origin: int) -> Optional[List[int]]:
            """Interior relays on origin's parent chain to the current
            leader, or None if the chain is broken or cyclic."""
            path: List[int] = []
            seen = {origin}
            v = parent[origin] if 0 <= origin < n else -1
            while v >= 0 and v != leader and v not in seen:
                path.append(v)
                seen.add(v)
                v = parent[v]
            return path if v == leader else None

        def charge(stage: str, rounds: int) -> None:
            self._rounds += rounds
            timing[stage] += rounds
            net.advance_to(self._rounds)

        def over_budget() -> bool:
            if self._rounds >= budget:
                if not watchdog[0]:
                    watchdog[0] = True
                    note("watchdog: round budget exhausted")
                return True
            return False

        def backoff(stage: str, attempt: int) -> None:
            wait = policy.backoff_wait(attempt)
            note(f"{stage}: backing off {wait} rounds before retry")
            charge("backoff", wait)

        def run_repair(parent, distance) -> Tuple[List[int], List[int]]:
            """Repair if any alive node is detached; returns the
            (possibly updated) parent/distance lists.  Convicted nodes
            are treated as dead; suspects are routed around (their
            children re-parent elsewhere) but may themselves re-adopt
            so their own packets keep a route to the root."""
            exclude = frozenset(blacklist)
            mute = frozenset(suspects)
            if exclude or mute:
                def routing_alive(v, _bad=exclude | mute):
                    return net.is_alive(v) and v not in _bad
            else:
                routing_alive = net.is_alive
            att = attached_set(parent, distance, leader, routing_alive)
            orphans = [
                v for v in range(n)
                if net.is_alive(v) and v not in exclude and v not in att
            ]
            if not orphans or over_budget():
                return parent, distance
            if not policy.enable_tree_repair:
                note(
                    f"repair: DISABLED by ablation; "
                    f"{len(orphans)} orphaned nodes left detached"
                )
                return parent, distance
            note(f"repair: {len(orphans)} orphaned nodes, re-parenting")
            rep = repair_tree(
                net, parent, distance, leader, rng,
                epochs=default_repair_epochs(
                    net, policy.repair_epoch_factor
                ),
                trace=self.trace,
                round_offset=self._rounds,
                exclude=exclude,
                mute=mute,
            )
            charge("repair", rep.rounds)
            repairs.append(rep)
            if rep.unreachable:
                note(
                    f"repair: {len(rep.unreachable)} nodes unreachable "
                    f"(entire neighborhood dead)"
                )
            return rep.parent, rep.distance

        def prune_lost(collected_here: Set[int]) -> None:
            """Packets whose origin died — or was convicted as an
            insider — before any surviving root holds them are lost;
            drop them honestly."""
            for pid in sorted(remaining):
                if pid in collected_here:
                    continue
                origin = origin_of[pid]
                if not net.is_alive(origin):
                    remaining.discard(pid)
                    lost.add(pid)
                    note(f"packet {pid} lost: origin crashed uncollected")
                elif origin in blacklist:
                    remaining.discard(pid)
                    lost.add(pid)
                    note(
                        f"packet {pid} lost: origin {origin} blacklisted "
                        f"uncollected"
                    )

        cycle = 0
        root_holdings: Set[int] = set()
        while remaining and cycle < policy.max_reelections + 1:
            cycle += 1
            reelections += 1
            if over_budget():
                break
            prune_lost(set())
            if not remaining:
                break

            candidates = sorted({
                origin_of[pid] for pid in remaining
                if net.is_alive(origin_of[pid])
                and origin_of[pid] not in blacklist
            })
            if not candidates:
                # Dead end: every remaining packet holder is crashed or
                # blacklisted.  Report all-lost explicitly instead of
                # burning re-election cycles and retry backoffs.
                for pid in sorted(remaining):
                    remaining.discard(pid)
                    lost.add(pid)
                    note(f"packet {pid} lost: no eligible holder remains")
                note(
                    "election: every remaining packet holder is crashed "
                    "or blacklisted; reporting all packets lost"
                )
                break

            # ---- Stage 1: leader election (retry on split/dead claim) --
            leader = -1
            for attempt in range(policy.max_stage_retries + 1):
                if over_budget():
                    break
                election = elect_leader(
                    net, candidates, rng,
                    epochs_per_probe=policy.escalated(
                        params.bgi_epochs(net), attempt
                    ),
                    trace=self.trace,
                    node_ids=self.node_ids,
                )
                charge("election", election.rounds)
                forged = (
                    byz.election_claims(id_bound, net.is_alive)
                    if byz is not None else []
                )
                winner = -1
                if forged and auth:
                    # Authenticated IDs: cross-validate every claim
                    # against the certified table.  A forged claim is an
                    # ID the claimant's key cannot certify — convict.
                    convict(
                        (v for v, claimed in forged
                         if claimed != certified_id(v)),
                        "forged leadership claim",
                    )
                    verified = [
                        c for c in election.claimants
                        if c not in blacklist and net.is_alive(c)
                    ]
                    claim_ok = len(verified) == 1
                    if claim_ok:
                        winner = verified[0]
                elif forged:
                    # Unauthenticated IDs: the inflated claim wins the
                    # comparison — the insider captures the election.
                    all_claims = [
                        (c, certified_id(c)) for c in election.claimants
                    ] + list(forged)
                    all_claims = [
                        (v, cid) for v, cid in all_claims
                        if net.is_alive(v)
                    ]
                    claim_ok = bool(all_claims)
                    if claim_ok:
                        winner = max(all_claims, key=lambda vc: vc[1])[0]
                else:
                    claim_ok = (
                        len(election.claimants) == 1
                        and net.is_alive(election.claimants[0])
                    )
                    if claim_ok:
                        winner = election.claimants[0]
                attempts.append(StageAttempt(
                    "election", cycle, attempt, election.rounds, claim_ok,
                    detail=f"claimants={election.claimants}" + (
                        f", forged_claims={sorted(v for v, _ in forged)}"
                        if forged else ""
                    ),
                ))
                if claim_ok:
                    leader = winner
                    break
                if attempt < policy.max_stage_retries:
                    backoff("election", attempt + 1)
                    candidates = [
                        c for c in candidates
                        if net.is_alive(c) and c not in blacklist
                    ]
                    if not candidates:
                        break
            net.materialize_stage("election")
            if leader < 0 or not net.is_alive(leader):
                note("election: no live leader emerged")
                continue
            note(f"leader elected: node {leader}")
            if byz is not None:
                byz.notice_leader(leader)

            # ---- Stage 2: distributed BFS (retry on uncovered nodes) ---
            parent: Optional[List[int]] = None
            distance: Optional[List[int]] = None
            for attempt in range(policy.max_stage_retries + 1):
                if over_budget() or not net.is_alive(leader):
                    break
                bfs = build_distributed_bfs(
                    net, leader, rng,
                    depth_bound=self.depth_bound,
                    epochs_per_phase=policy.escalated(
                        params.bfs_epochs(net), attempt
                    ),
                    trace=self.trace,
                )
                charge("bfs", bfs.rounds)
                covered = all(
                    bfs.distance[v] >= 0
                    for v in range(n) if net.is_alive(v)
                )
                attempts.append(StageAttempt(
                    "bfs", cycle, attempt, bfs.rounds, covered,
                ))
                if covered:
                    parent, distance = bfs.parent, bfs.distance
                    break
                parent, distance = bfs.parent, bfs.distance
                if attempt < policy.max_stage_retries:
                    backoff("bfs", attempt + 1)
            net.materialize_stage("bfs")
            if parent is None or not net.is_alive(leader):
                note("bfs: leader crashed during tree construction")
                continue

            if auth:
                # Layer audit: every adoption sets child = announced + 1,
                # and honest announcements equal the announcer's recorded
                # layer, so an edge with distance[child] !=
                # distance[parent] + 1 convicts the parent of layer
                # misreporting.  Victims are detached and re-parented at
                # the next repair pass.
                liars = {
                    parent[v] for v in range(n)
                    if v != leader and distance[v] >= 0 and parent[v] >= 0
                    and (distance[parent[v]] < 0
                         or distance[v] != distance[parent[v]] + 1)
                }
                liars.discard(leader)
                if liars:
                    convict(sorted(liars), "BFS layer misreporting")
                    detached = 0
                    for v in range(n):
                        if parent[v] in liars:
                            parent[v] = -1
                            distance[v] = -1
                            detached += 1
                    note(
                        f"bfs: audit convicted {len(liars)} lying "
                        f"parents; {detached} victims detached for repair"
                    )

            # ---- Stage 3: collection (repair + retry on unacked) -------
            collection_params = params.with_overrides(
                max_collection_phases=min(
                    params.max_collection_phases,
                    policy.collection_phase_cap,
                )
            )
            root_holdings = {
                pid for pid in remaining if origin_of[pid] == leader
            }
            collected_order: List[int] = sorted(root_holdings)
            for attempt in range(policy.max_stage_retries + 1):
                if over_budget() or not net.is_alive(leader):
                    break
                jam_before_collection = (
                    net.rx_suppressed_jam + net.rx_jammed_adversary
                )
                prune_lost(root_holdings)
                parent, distance = run_repair(parent, distance)
                if blacklist:
                    attached = attached_set(
                        parent, distance, leader,
                        lambda v: net.is_alive(v) and v not in blacklist,
                    )
                else:
                    attached = attached_set(
                        parent, distance, leader, net.is_alive
                    )
                to_collect = [
                    by_pid[pid] for pid in sorted(remaining)
                    if pid not in root_holdings
                    and origin_of[pid] in attached
                ]
                if not to_collect:
                    attempts.append(StageAttempt(
                        "collection", cycle, attempt, 0, True,
                        detail="nothing to collect",
                    ))
                    break
                collection = run_collection_stage(
                    net, parent, distance, leader, to_collect,
                    collection_params, rng,
                    depth_bound=self.depth_bound,
                    trace=self.trace,
                    blacklist=frozenset(blacklist),
                )
                charge("collection", collection.rounds)
                byz_rx_discarded_total += collection.byzantine_rx_discarded
                forged_acks_total += collection.forged_acks_rejected
                if collection.flagged:
                    convict(collection.flagged, "forged collection traffic")
                for pid in collection.collected_order:
                    if pid not in root_holdings:
                        root_holdings.add(pid)
                        collected_order.append(pid)
                ok = collection.all_collected and net.is_alive(leader)
                attempts.append(StageAttempt(
                    "collection", cycle, attempt, collection.rounds, ok,
                    detail=f"collected={len(collection.collected_order)}"
                           f"/{len(to_collect)}",
                ))
                if ok:
                    break
                if auth:
                    # Quorum path audit: a silent black hole leaves no
                    # cryptographic evidence, so count how many failing
                    # origin→root paths each interior relay sits on.
                    # Relays on any succeeding path are exonerated;
                    # repeat offenders are *suspected* (routed around at
                    # the next repair), never convicted.
                    collected_now = set(collection.collected_order)
                    exonerated: Set[int] = set()
                    accused: List[int] = []
                    for pkt in to_collect:
                        path = interior_path(parent, pkt.origin)
                        if path is None:
                            continue
                        if pkt.pid in collected_now:
                            exonerated.update(path)
                        else:
                            accused.extend(path)
                    for v in exonerated:
                        suspicion.pop(v, None)
                    promoted: Set[int] = set()
                    for v in accused:
                        if (v in exonerated or v in blacklist
                                or v in suspects or v == leader):
                            continue
                        suspicion[v] = suspicion.get(v, 0) + 1
                        if suspicion[v] >= policy.audit_quorum:
                            promoted.add(v)
                    if promoted:
                        suspects.update(promoted)
                        note(
                            f"audit: routing around suspected relays "
                            f"{sorted(promoted)} "
                            f"(quorum {policy.audit_quorum} failing paths)"
                        )
                if attempt < policy.max_stage_retries:
                    jam_delta = (
                        net.rx_suppressed_jam + net.rx_jammed_adversary
                        - jam_before_collection
                    )
                    if jam_delta:
                        note(
                            f"collection: jamming-consistent stall "
                            f"({jam_delta} receptions suppressed); "
                            f"retrying with escalated budget"
                        )
                    backoff("collection", attempt + 1)
            net.materialize_stage("collection")
            if not net.is_alive(leader):
                note("collection: leader crashed; re-electing")
                continue

            # ---- Stage 4: dissemination (repair + retry; detection-
            # driven escalation under jamming/corruption) ---------------
            for attempt in range(policy.max_stage_retries + 1):
                if over_budget() or not net.is_alive(leader):
                    break
                parent, distance = run_repair(parent, distance)
                to_send = [
                    by_pid[pid] for pid in collected_order
                    if pid in remaining
                ]
                if not to_send:
                    break
                jam_before = (
                    net.rx_suppressed_jam + net.rx_jammed_adversary
                )
                # A retry deepens Decay and repeats the root's plain
                # packets more: more epochs cannot replace a packet that
                # a layer-1 node lost, and repetitions fill idle slots
                # of the root's phase, so they cost no rounds.
                diss_params = (
                    params if attempt == 0 else params.with_overrides(
                        forward_epochs_factor=(
                            params.forward_epochs_factor
                            * policy.budget_escalation ** attempt
                        ),
                        root_plain_repetitions=(
                            params.root_plain_repetitions + attempt
                        ),
                    )
                )
                safe_distance = [
                    d if d >= 0 else 1 for d in distance
                ]
                safe_distance[leader] = 0
                dissemination = run_dissemination_stage(
                    net, safe_distance, leader, to_send, diss_params,
                    rng, trace=self.trace,
                    blacklist=frozenset(blacklist),
                )
                charge("dissemination", dissemination.rounds)
                corrupt_discarded_total += dissemination.corrupted_discarded
                mis_decodes_total += dissemination.mis_decodes
                byz_rx_discarded_total += dissemination.byzantine_rx_discarded
                poisoned_rows_total += dissemination.poisoned_rows_attributed
                if dissemination.flagged_senders:
                    convict(
                        dissemination.flagged_senders, "poisoned coded rows"
                    )

                # a mis-decoded (node, group) believes it holds the group
                # but the data is wrong: never count it as delivered
                holds = dissemination.has_group.copy()
                for v, j in dissemination.mis_decoded_receivers:
                    holds[v, j] = False
                width = dissemination.group_width
                cols = [pid_col[pkt.pid] for pkt in to_send]
                knows[:, cols] |= holds[:, np.arange(len(to_send)) // width]
                audience = np.zeros(n, dtype=bool)
                audience[net.alive_nodes()] = True
                audience[list(blacklist)] = False
                delivered = knows[audience][:, cols].all(axis=0)
                delivered_now = [
                    pkt.pid for pkt, ok in zip(to_send, delivered) if ok
                ]
                for pid in delivered_now:
                    remaining.discard(pid)
                ok = all(
                    pkt.pid not in remaining for pkt in to_send
                )
                attempts.append(StageAttempt(
                    "dissemination", cycle, attempt,
                    dissemination.rounds, ok,
                    detail=f"delivered={len(delivered_now)}"
                           f"/{len(to_send)}, corrupted="
                           f"{dissemination.corrupted_discarded}, "
                           f"mis_decodes={dissemination.mis_decodes}",
                ))
                if ok:
                    break
                if attempt < policy.max_stage_retries:
                    # detection-driven escalation: name the adversary the
                    # evidence points at before deepening the schedules
                    jam_delta = (
                        net.rx_suppressed_jam + net.rx_jammed_adversary
                        - jam_before
                    )
                    depth = policy.budget_escalation ** (attempt + 1)
                    undelivered_groups = {
                        i // width for i, pkt in enumerate(to_send)
                        if pkt.pid in remaining
                    }
                    if (dissemination.corrupted_discarded
                            or dissemination.mis_decodes
                            or dissemination.poisoned_rows_attributed):
                        note(
                            f"dissemination: corruption detected "
                            f"({dissemination.corrupted_discarded} rows "
                            f"quarantined, "
                            f"{dissemination.poisoned_rows_attributed} "
                            f"poisoned rows attributed, "
                            f"{dissemination.mis_decodes} "
                            f"mis-decodes); re-requesting "
                            f"{len(undelivered_groups)} groups with "
                            f"Decay depth x{depth:.2f}"
                        )
                    elif jam_delta:
                        note(
                            f"dissemination: jamming-consistent stall "
                            f"({jam_delta} receptions suppressed); "
                            f"re-requesting {len(undelivered_groups)} "
                            f"groups with Decay depth x{depth:.2f}"
                        )
                    backoff("dissemination", attempt + 1)
            net.materialize_stage("dissemination")
            if not remaining:
                break
            if not net.is_alive(leader):
                note("dissemination: leader crashed; re-electing")
                continue
            # Retries exhausted with a live leader: give up honestly.
            break

        # ---- final accounting ------------------------------------------
        # Packets the (live) current root already collected are not lost
        # even when their origin has since crashed — merely undelivered.
        prune_lost(
            root_holdings
            if leader >= 0 and net.is_alive(leader)
            else set()
        )
        survivors = net.alive_nodes()
        honest_survivors = [v for v in survivors if v not in blacklist]
        non_lost = [pid for pid in by_pid if pid not in lost]
        if honest_survivors and non_lost:
            cols = [pid_col[pid] for pid in non_lost]
            informed = float(
                knows[np.ix_(honest_survivors, cols)].mean()
            )
        else:
            informed = 1.0
        undelivered = sorted(remaining)
        all_lost = bool(by_pid) and not non_lost
        success = (
            not watchdog[0] and not undelivered and informed >= 1.0
            and not all_lost
        )
        byz_nodes = byz.nodes if byz is not None else frozenset()
        mis_attributions = sum(
            1 for v in blacklist
            if v not in byz_nodes and v not in self.initial_blacklist
        )
        retries = sum(1 for a in attempts if a.attempt > 0)
        for clock, kind, target in net.events_applied:
            timeline.append((clock, f"fault: {kind} {target}"))
        timeline.sort(key=lambda entry: entry[0])

        return SupervisedResult(
            n=n,
            k=k,
            success=success,
            informed_fraction=informed,
            coverage=(len(non_lost) / k) if k else 1.0,
            leader=leader,
            total_rounds=self._rounds,
            round_budget=budget,
            watchdog_tripped=watchdog[0],
            timing=timing,
            attempts=attempts,
            repairs=repairs,
            reelections=max(0, reelections),
            retries=retries,
            packets_lost=sorted(lost),
            packets_undelivered=undelivered,
            survivors=survivors,
            fault_stats=net.fault_stats(),
            corrupt_discarded=corrupt_discarded_total,
            mis_decodes=mis_decodes_total,
            timeline=timeline,
            trace=self.trace,
            blacklisted=sorted(blacklist),
            suspected=sorted(suspects),
            byzantine_rx_discarded=byz_rx_discarded_total,
            forged_acks_rejected=forged_acks_total,
            poisoned_rows_attributed=poisoned_rows_total,
            mis_attributions=mis_attributions,
            all_lost=all_lost,
        )
