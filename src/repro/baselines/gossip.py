"""Uncoded random-push gossip over Decay epochs (the BII-style baseline).

Every node that knows at least one packet participates in every Decay
epoch.  Each time a node transmits it sends one uniformly random packet
from the set it currently knows (a fresh draw per transmission).  A
receiver adds the packet to its set and participates from the next epoch.

This is the natural uncoded multiple-message broadcast dynamic: all
packets progress concurrently, each reception delivers one concrete packet
(possibly a duplicate), and completion suffers the coupon-collector and
contention overheads that give the ``O(k·log n·logΔ)``-type behaviour the
paper attributes to the BII line of work.  See DESIGN.md for the
substitution note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.coding.packets import Packet
from repro.primitives.decay import decay_slots
from repro.radio.errors import SimulationLimitExceeded
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace


@dataclass
class GossipResult:
    """Outcome of a gossip run.

    ``rounds`` is the first round by which every node knew every packet
    (or the budget, if incomplete).
    """

    rounds: int
    epochs: int
    complete: bool
    k: int
    transmissions: int
    duplicate_receptions: int

    @property
    def amortized_rounds_per_packet(self) -> float:
        return self.rounds / max(self.k, 1)


def decay_gossip_broadcast(
    network: RadioNetwork,
    packets: Sequence[Packet],
    rng: np.random.Generator,
    max_epochs: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    raise_on_budget: bool = False,
    selection: str = "uniform",
) -> GossipResult:
    """Run uncoded random-push gossip until everyone knows all packets.

    Parameters
    ----------
    max_epochs:
        Epoch budget.  Defaults to a generous
        ``8·(k + D + log n)·log(n+k)`` so that completion-time measurement
        is rarely truncated.
    selection:
        Which known packet a transmitter pushes (ablation A6):

        - ``"uniform"`` — a fresh uniform draw per transmission (default);
        - ``"round_robin"`` — each node cycles deterministically through
          its known packets, so repeated transmissions never repeat a
          packet until all have been sent once;
        - ``"newest_first"`` — push the most recently learned packet
          (fast spreading of new information, at the risk of starving old
          packets).
    """
    n = network.n
    k = len(packets)
    if k == 0:
        return GossipResult(0, 0, True, 0, 0, 0)

    pids = [p.pid for p in packets]
    pid_index = {pid: i for i, pid in enumerate(pids)}
    # known[v] = boolean vector over packet indices
    known = np.zeros((n, k), dtype=bool)
    for p in packets:
        known[p.origin, pid_index[p.pid]] = True

    if max_epochs is None:
        ln = math.log2(max(n + k, 2))
        max_epochs = max(1, math.ceil(8 * (k + network.diameter + ln) * ln))
    if selection not in ("uniform", "round_robin", "newest_first"):
        raise ValueError(f"unknown selection policy {selection!r}")

    slots = decay_slots(network.max_degree)
    rounds = 0
    transmissions = 0
    duplicates = 0
    complete = bool(known.all())
    epochs_run = 0

    known_counts = known.sum(axis=1)
    cursors = np.zeros(n, dtype=np.int64)          # round_robin state
    newest: List[List[int]] = [[] for _ in range(n)]  # newest_first stacks
    for p in packets:
        newest[p.origin].append(pid_index[p.pid])

    def pick_packet(v: int) -> int:
        if selection == "round_robin":
            mine = np.nonzero(known[v])[0]
            pick = int(mine[cursors[v] % len(mine)])
            cursors[v] += 1
            return pick
        if selection == "newest_first" and newest[v]:
            # transmit the most recent, then rotate it to the back so the
            # policy is a recency-ordered cycle (plain newest-only would
            # starve old packets)
            stack = newest[v]
            pick = stack[-1]
            stack.insert(0, stack.pop())
            return pick
        mine = np.nonzero(known[v])[0]
        return int(mine[rng.integers(0, len(mine))])

    for _ in range(max_epochs):
        if complete:
            break
        epochs_run += 1
        participants = np.nonzero(known_counts > 0)[0]
        for s in range(slots):
            p_tx = 2.0 ** -(s + 1)
            coins = rng.random(len(participants)) < p_tx
            hot = participants[coins]
            tx: Dict[int, int] = {}
            for v in hot:
                v = int(v)
                tx[v] = pick_packet(v)
                transmissions += 1
            received = network.resolve_round(tx)
            if trace is not None:
                trace.observe(rounds + s, tx, received)
            for receiver, pidx in received.items():
                if known[receiver, pidx]:
                    duplicates += 1
                else:
                    known[receiver, pidx] = True
                    known_counts[receiver] += 1
                    if selection == "newest_first":
                        newest[receiver].append(pidx)
        rounds += slots
        complete = bool(known.all())

    if not complete and raise_on_budget:
        raise SimulationLimitExceeded(
            f"gossip did not complete within {max_epochs} epochs",
            rounds_used=rounds,
        )
    return GossipResult(
        rounds=rounds,
        epochs=epochs_run,
        complete=complete,
        k=k,
        transmissions=transmissions,
        duplicate_receptions=duplicates,
    )
