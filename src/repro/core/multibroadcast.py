"""The multiple-message broadcast algorithm (Theorem 2): all four stages.

:class:`MultipleMessageBroadcast` chains

1. leader election among the packet holders (Fact 1),
2. distributed BFS-tree construction from the leader (Theorem 1),
3. packet collection at the root (Lemma 5), and
4. coded pipelined dissemination (Lemma 7),

and reports per-stage round counts plus end-to-end success: every node
holds all ``k`` packets.  Total time, w.h.p.:
``O(k·logΔ + (D + log n)·log n·logΔ)`` — amortized ``O(logΔ)`` per packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.coding.packets import Packet
from repro.core.collection import CollectionResult, run_collection_stage
from repro.core.config import AlgorithmParameters
from repro.core.dissemination import DisseminationResult, run_dissemination_stage
from repro.primitives.bfs import DistributedBfsResult, build_distributed_bfs
from repro.primitives.leader_election import LeaderElectionResult, elect_leader
from repro.radio.network import RadioNetwork
from repro.radio.rng import SeedLike, make_rng
from repro.radio.trace import RoundTrace


@dataclass
class StageTiming:
    """Rounds consumed by each stage."""

    leader_election: int = 0
    bfs: int = 0
    collection: int = 0
    dissemination: int = 0

    @property
    def total(self) -> int:
        return (
            self.leader_election + self.bfs + self.collection + self.dissemination
        )


@dataclass
class MultiBroadcastResult:
    """End-to-end outcome of one multi-broadcast execution.

    ``success`` is the paper's correctness condition: every node knows
    every packet (its own originals count, naturally).  The per-stage
    sub-results expose each stage's own w.h.p. event so experiments can
    attribute failures.
    """

    n: int
    diameter: int
    max_degree: int
    k: int
    timing: StageTiming
    success: bool
    leader: int
    election: LeaderElectionResult = field(repr=False, default=None)
    bfs: DistributedBfsResult = field(repr=False, default=None)
    collection: CollectionResult = field(repr=False, default=None)
    dissemination: DisseminationResult = field(repr=False, default=None)
    informed_fraction: float = 1.0
    trace: RoundTrace = field(repr=False, default=None)

    @property
    def total_rounds(self) -> int:
        return self.timing.total

    @property
    def amortized_rounds_per_packet(self) -> float:
        """The paper's headline metric: total rounds divided by k."""
        return self.timing.total / max(self.k, 1)


class MultipleMessageBroadcast:
    """The paper's algorithm, ready to run on a network.

    Example
    -------
    >>> from repro.topology import grid
    >>> from repro.coding.packets import make_packets, required_packet_bits
    >>> net = grid(4, 4)
    >>> pkts = make_packets([0, 5, 10, 15], required_packet_bits(net.n), seed=1)
    >>> result = MultipleMessageBroadcast(net, seed=7).run(pkts)
    >>> result.success
    True
    """

    def __init__(
        self,
        network: RadioNetwork,
        params: Optional[AlgorithmParameters] = None,
        seed: SeedLike = None,
        depth_bound: Optional[int] = None,
        keep_trace: bool = False,
        node_ids: Optional[Sequence[int]] = None,
    ):
        self.network = network
        self.params = params or AlgorithmParameters()
        self.rng = make_rng(seed)
        self.depth_bound = depth_bound or network.diameter
        self.trace = RoundTrace() if keep_trace else None
        #: Per-node IDs used by the leader election (the paper's nodes
        #: carry arbitrary distinct IDs); defaults to node indices.
        self.node_ids = node_ids

    def run(self, packets: Sequence[Packet]) -> MultiBroadcastResult:
        """Broadcast ``packets`` from their origins to every node."""
        network = self.network
        params = self.params
        rng = self.rng
        timing = StageTiming()
        k = len(packets)

        if k == 0:
            return MultiBroadcastResult(
                n=network.n,
                diameter=network.diameter,
                max_degree=network.max_degree,
                k=0,
                timing=timing,
                success=True,
                leader=-1,
            )
        for p in packets:
            if not 0 <= p.origin < network.n:
                raise ValueError(f"packet {p.pid} origin {p.origin} out of range")

        # ---- Stage 1: leader election among packet holders ------------
        candidates = sorted(set(p.origin for p in packets))
        election = elect_leader(
            network,
            candidates,
            rng,
            epochs_per_probe=params.bgi_epochs(network),
            trace=self.trace,
            node_ids=self.node_ids,
        )
        timing.leader_election = election.rounds

        # The protocol needs a *unique* claimant to proceed; uniqueness,
        # not being the true max, is what matters downstream.
        if len(election.claimants) != 1:
            return self._failed(k, timing, election=election)
        leader = election.claimants[0]

        # ---- Stage 2: distributed BFS from the leader ------------------
        bfs = build_distributed_bfs(
            network,
            leader,
            rng,
            depth_bound=self.depth_bound,
            epochs_per_phase=params.bfs_epochs(network),
            trace=self.trace,
        )
        timing.bfs = bfs.rounds
        if not bfs.complete:
            return self._failed(k, timing, election=election, bfs=bfs, leader=leader)

        # ---- Stage 3: collection at the root ---------------------------
        collection = run_collection_stage(
            network,
            bfs.parent,
            bfs.distance,
            leader,
            packets,
            params,
            rng,
            depth_bound=self.depth_bound,
            trace=self.trace,
        )
        timing.collection = collection.rounds
        if not collection.all_collected:
            return self._failed(
                k,
                timing,
                election=election,
                bfs=bfs,
                collection=collection,
                leader=leader,
            )

        # ---- Stage 4: coded dissemination -------------------------------
        by_pid: Dict[int, Packet] = {p.pid: p for p in packets}
        ordered = [by_pid[pid] for pid in collection.collected_order]
        dissemination = run_dissemination_stage(
            network,
            bfs.distance,
            leader,
            ordered,
            params,
            rng,
            trace=self.trace,
        )
        timing.dissemination = dissemination.rounds

        informed = self._informed_fraction(packets, dissemination, ordered)
        return MultiBroadcastResult(
            n=network.n,
            diameter=network.diameter,
            max_degree=network.max_degree,
            k=k,
            timing=timing,
            success=dissemination.complete,
            leader=leader,
            election=election,
            bfs=bfs,
            collection=collection,
            dissemination=dissemination,
            informed_fraction=informed,
            trace=self.trace,
        )

    def _informed_fraction(
        self,
        packets: Sequence[Packet],
        dissemination: DisseminationResult,
        ordered: Sequence[Packet],
    ) -> float:
        """Fraction of (node, packet) pairs delivered, counting originals."""
        n = self.network.n
        k = len(packets)
        width = dissemination.group_width
        known = 0
        group_of = {
            p.pid: i // width for i, p in enumerate(ordered)
        }
        origin_of = {p.pid: p.origin for p in packets}
        for p in packets:
            j = group_of[p.pid]
            holders = int(dissemination.has_group[:, j].sum())
            if not dissemination.has_group[origin_of[p.pid], j]:
                holders += 1  # the origin always knows its own packet
            known += holders
        return known / (n * k) if n * k else 1.0

    def _failed(self, k: int, timing: StageTiming, leader: int = -1, **stages):
        return MultiBroadcastResult(
            n=self.network.n,
            diameter=self.network.diameter,
            max_degree=self.network.max_degree,
            k=k,
            timing=timing,
            success=False,
            leader=leader,
            informed_fraction=0.0,
            trace=self.trace,
            **stages,
        )
