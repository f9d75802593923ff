"""Centralized TDMA flooding: the known-topology comparator.

The paper motivates multi-broadcast with "learning topology of the
underlying network (in order to benefit from efficiency of centralized
solutions)".  This module is that payoff, implemented: once every node
knows the topology (e.g. via one k = n run of the paper's algorithm, as
in ``examples/routing_table_update.py``), all nodes can compute the same
**distance-2 coloring** and run a deterministic, collision-free TDMA
schedule forever after.

- :func:`distance2_coloring` — greedy coloring of the square graph
  (two nodes share a color only if no node neighbors both), so nodes of
  one color class transmit simultaneously without any collision at any
  receiver.  Greedy uses at most ``Δ² + 1`` colors; on bounded-degree
  graphs that is O(1) colors.
- :func:`tdma_flood_broadcast` — pipelined flooding on the TDMA frame:
  in its slot, every node transmits the oldest packet it knows that it
  has not transmitted yet.  Deterministic: no randomness, no losses, no
  retries; completion is guaranteed and exactly measurable.

Amortized cost per packet is ``Θ(χ)`` (the frame length) — constant on
bounded-degree graphs, which beats even the paper's ``O(logΔ)`` once the
topology is known.  The paper's algorithm is what you run *before* you
know the topology; this is what the learned topology buys (E18).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.coding.packets import Packet
from repro.radio.errors import SimulationLimitExceeded
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace


def distance2_coloring(network: RadioNetwork) -> List[int]:
    """Greedy coloring of the square graph G².

    Two nodes receive equal colors only if they are non-adjacent AND have
    no common neighbor — then their simultaneous transmissions cannot
    collide at any node.  Deterministic (nodes in id order), so every
    node computes the identical coloring from the shared topology.
    """
    n = network.n
    colors = [-1] * n
    for v in range(n):
        forbidden: Set[int] = set()
        for u in network.neighbors(v):
            u = int(u)
            if colors[u] >= 0:
                forbidden.add(colors[u])
            for w in network.neighbors(u):
                w = int(w)
                if w != v and colors[w] >= 0:
                    forbidden.add(colors[w])
        color = 0
        while color in forbidden:
            color += 1
        colors[v] = color
    return colors


def verify_distance2_coloring(
    network: RadioNetwork, colors: Sequence[int]
) -> List[str]:
    """Check the distance-2 property; returns violations (empty = valid)."""
    violations: List[str] = []
    for v in network.nodes():
        seen: Dict[int, int] = {}
        for u in network.neighbors(v):
            u = int(u)
            c = colors[u]
            if c in seen:
                violations.append(
                    f"nodes {seen[c]} and {u} share color {c} and are both "
                    f"neighbors of {v}"
                )
            seen[c] = u
        if colors[v] in seen:
            violations.append(
                f"node {v} shares color {colors[v]} with its neighbor "
                f"{seen[colors[v]]}"
            )
    return violations


@dataclass
class TdmaFloodResult:
    """Outcome of a TDMA flood (deterministic)."""

    rounds: int
    complete: bool
    k: int
    num_colors: int
    transmissions: int

    @property
    def amortized_rounds_per_packet(self) -> float:
        return self.rounds / max(self.k, 1)


def tdma_flood_broadcast(
    network: RadioNetwork,
    packets: Sequence[Packet],
    colors: Optional[Sequence[int]] = None,
    max_rounds: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    raise_on_budget: bool = False,
) -> TdmaFloodResult:
    """Deterministic pipelined flooding on the TDMA frame.

    Round ``r`` belongs to color ``r mod χ``; each node of that color
    transmits the oldest packet it knows but has not yet transmitted
    (FIFO per node).  Every transmission is collision-free by the
    distance-2 property, so each reaches the sender's whole neighborhood.
    """
    n = network.n
    k = len(packets)
    if k == 0:
        return TdmaFloodResult(0, True, 0, 0, 0)
    if colors is None:
        colors = distance2_coloring(network)
    num_colors = max(colors) + 1

    by_color: List[List[int]] = [[] for _ in range(num_colors)]
    for v in range(n):
        by_color[colors[v]].append(v)

    knows: List[Set[int]] = [set() for _ in range(n)]
    to_send: List[Deque[Packet]] = [deque() for _ in range(n)]
    for p in packets:
        if not 0 <= p.origin < n:
            raise ValueError(f"packet {p.pid} origin out of range")
        if p.pid not in knows[p.origin]:
            knows[p.origin].add(p.pid)
            to_send[p.origin].append(p)

    distinct = len({p.pid for p in packets})
    total_known = sum(len(s) for s in knows)
    target = n * distinct
    if max_rounds is None:
        # every packet crosses every edge direction at most once per node:
        # <= n*k transmissions, >= 1 per frame when incomplete
        max_rounds = num_colors * (n * distinct + network.diameter + 1)

    rounds = 0
    transmissions = 0
    while total_known < target and rounds < max_rounds:
        color = rounds % num_colors
        tx: Dict[int, object] = {}
        for v in by_color[color]:
            if to_send[v]:
                tx[v] = to_send[v].popleft()
                transmissions += 1
        received = network.resolve_round(tx)
        if trace is not None:
            trace.observe(rounds, tx, received)
        # distance-2 coloring guarantees every transmission is heard by
        # the full neighborhood — the model must agree:
        expected = sum(network.degree(v) for v in tx)
        if len(received) != expected:
            raise AssertionError(
                "TDMA transmissions collided; the coloring is broken"
            )
        for receiver, packet in received.items():
            if packet.pid not in knows[receiver]:
                knows[receiver].add(packet.pid)
                to_send[receiver].append(packet)
                total_known += 1
        rounds += 1

    complete = total_known >= target
    if not complete and raise_on_budget:
        raise SimulationLimitExceeded(
            f"TDMA flooding incomplete after {rounds} rounds",
            rounds_used=rounds,
        )
    return TdmaFloodResult(
        rounds=rounds,
        complete=complete,
        k=k,
        num_colors=num_colors,
        transmissions=transmissions,
    )
