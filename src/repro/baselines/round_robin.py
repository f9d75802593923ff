"""Deterministic ad-hoc flooding: TDMA by node ID.

The simplest *deterministic* algorithm that needs no topology knowledge
(only unique IDs and the bound ``n``): node ``v`` may transmit only in
rounds ``r ≡ v (mod n)``.  Exactly one node is eligible per round, so no
transmission ever collides — correctness is unconditional — but the
frame length is ``n``, so flooding runs at ``Θ(n)`` amortized rounds per
packet.

This is the determinism end of the spectrum the BGI line of work opened
("an exponential gap between determinism and randomization"): against
the paper's randomized ``O(logΔ)`` amortized cost, the deterministic
ID-frame pays ``Θ(n)`` (experiment E20).  (The best known deterministic
algorithms the paper cites improve on this naive frame but remain
polynomially slower than the randomized bound.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.coding.packets import Packet
from repro.radio.errors import SimulationLimitExceeded
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace


@dataclass
class RoundRobinFloodResult:
    """Outcome of a deterministic ID-frame flood."""

    rounds: int
    complete: bool
    k: int
    transmissions: int

    @property
    def amortized_rounds_per_packet(self) -> float:
        return self.rounds / max(self.k, 1)


def round_robin_flood_broadcast(
    network: RadioNetwork,
    packets: Sequence[Packet],
    max_rounds: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    raise_on_budget: bool = False,
) -> RoundRobinFloodResult:
    """Flood all packets deterministically on the ID frame.

    In its slot, a node transmits the oldest packet it knows but has not
    yet transmitted (FIFO).  No randomness, no collisions, no topology
    knowledge; completion is guaranteed within ``n·(n·k + D)`` rounds.
    """
    n = network.n
    k = len(packets)
    if k == 0:
        return RoundRobinFloodResult(0, True, 0, 0)

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
        max_rounds = n * (n * distinct + network.diameter + 1)

    rounds = 0
    transmissions = 0
    while total_known < target and rounds < max_rounds:
        v = rounds % n
        tx: Dict[int, object] = {}
        if to_send[v]:
            tx[v] = to_send[v].popleft()
            transmissions += 1
        received = network.resolve_round(tx)
        if trace is not None:
            trace.observe(rounds, tx, received)
        for receiver, packet in received.items():
            if packet.pid not in knows[receiver]:
                knows[receiver].add(packet.pid)
                to_send[receiver].append(packet)
                total_known += 1
        rounds += 1

    complete = total_known >= target
    if not complete and raise_on_budget:
        raise SimulationLimitExceeded(
            f"round-robin flooding incomplete after {rounds} rounds",
            rounds_used=rounds,
        )
    return RoundRobinFloodResult(
        rounds=rounds,
        complete=complete,
        k=k,
        transmissions=transmissions,
    )
