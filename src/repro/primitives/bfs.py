"""Distributed BFS-tree construction (Theorem 1; protocol from BGI 1992).

The construction proceeds in ``D`` phases of ``O(log n)`` Decay epochs
(``O(log n log Δ)`` rounds per phase).  In phase ``d`` only the nodes that
already know they are at distance ``d`` from the root transmit construction
messages ``(sender_id, d)`` via Decay.  A node that first receives a
construction message adopts the sender as its BFS parent and sets its
distance to the sender's distance plus one; it then participates in the
next phase.  Nodes recognize phase boundaries from the global round
counter (phases have fixed length).

At the end every node knows its parent and its exact distance w.h.p.; the
result is validated against ground truth by
:func:`repro.topology.metrics.validate_bfs_tree` in tests and experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.primitives.decay import decay_slots, decay_transmit_matrix
from repro.radio.network import RadioNetwork, _sorted_unique
from repro.radio.trace import RoundTrace


@dataclass
class DistributedBfsResult:
    """Outcome of the distributed BFS construction.

    ``parent[root] == -1``; nodes that never joined keep parent -1 and
    distance -1 (a w.h.p. failure, reported honestly).
    """

    rounds: int
    parent: List[int]
    distance: List[int]
    phases: int
    epochs_per_phase: int
    complete: bool


def default_bfs_epochs(network: RadioNetwork, factor: float = 3.0) -> int:
    """Decay epochs per BFS phase: the Theorem 1 budget ``O(log n)``."""
    return max(1, math.ceil(factor * math.log2(max(network.n, 2))))


def build_distributed_bfs(
    network: RadioNetwork,
    root: int,
    rng: np.random.Generator,
    depth_bound: Optional[int] = None,
    epochs_per_phase: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
) -> DistributedBfsResult:
    """Run the layer-by-layer construction from ``root``.

    Parameters
    ----------
    depth_bound:
        The linear upper bound on ``D`` the nodes know; the protocol runs
        exactly this many phases.  Defaults to the true diameter.
    epochs_per_phase:
        Decay epochs per phase (``O(log n)``); defaults to
        :func:`default_bfs_epochs`.

    Notes
    -----
    Each epoch's coin flips come from one :func:`decay_transmit_matrix`
    draw over the frontier, followed by the epoch's slots.  On a
    :meth:`~RadioNetwork.vector_capable` network without a trace (a bare
    network, or a fault layer whose faults are masks) the phase is the
    unit of work: its frontier is fixed, so all of its epochs' coins
    are drawn first, in one block-form call, and every slot of the
    phase is resolved by one labelled
    :meth:`RadioNetwork.resolve_round_vector` call (see
    :func:`_bfs_phase_direct`) that stands for the phase's
    ``epochs_per_phase · slots`` rounds, with the unreached nodes as its
    only listeners.  Every other network gets real
    per-slot dicts, so randomized faults and transcripts are preserved.
    The dict loop draws an epoch's coins right before its slots because
    a fault layer there may draw jam drops from the protocol's generator
    (``SupervisedBroadcast`` shares it when seeded with one); a layer on
    the direct path draws nothing, so both orders consume the same
    stream.
    """
    n = network.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    if depth_bound is None:
        depth_bound = network.diameter
    if epochs_per_phase is None:
        epochs_per_phase = default_bfs_epochs(network)

    num_slots = decay_slots(network.max_degree)
    parent = np.full(n, -1, dtype=np.int64)
    distance = np.full(n, -1, dtype=np.int64)
    distance[root] = 0

    rounds = 0
    phases_run = 0
    direct = RadioNetwork.vector_capable(network) and trace is None
    for phase in range(depth_bound):
        phases_run += 1
        frontier = np.flatnonzero(distance == phase)
        if frontier.size == 0:
            # No node at this distance; the phase still elapses (nodes only
            # know the depth *bound*), but simulating silent epochs is
            # unnecessary — account for the rounds and move on.
            rounds += epochs_per_phase * num_slots
            continue
        if direct:
            _bfs_phase_direct(
                network, rng, frontier, phase, epochs_per_phase, num_slots,
                parent, distance,
            )
            rounds += epochs_per_phase * num_slots
            continue
        for _ in range(epochs_per_phase):
            coins = decay_transmit_matrix(frontier.size, rng, num_slots)
            for slot in range(num_slots):
                tx = frontier[coins[slot]]
                transmissions = {int(t): (int(t), phase) for t in tx}
                received = network.resolve_round(transmissions)
                if trace is not None:
                    trace.observe(
                        round_offset + rounds + slot,
                        transmissions,
                        received,
                    )
                for receiver, payload in received.items():
                    if not (isinstance(payload, tuple) and len(payload) == 2):
                        continue  # stray traffic (e.g. a forged ACK)
                    sender, sender_dist = payload
                    if distance[receiver] < 0:
                        parent[receiver] = sender
                        distance[receiver] = sender_dist + 1
            rounds += num_slots

    return DistributedBfsResult(
        rounds=rounds,
        parent=[int(p) for p in parent],
        distance=[int(d) for d in distance],
        phases=phases_run,
        epochs_per_phase=epochs_per_phase,
        complete=bool((distance >= 0).all()),
    )


def _bfs_phase_direct(
    network: RadioNetwork,
    rng: np.random.Generator,
    frontier: np.ndarray,
    phase: int,
    epochs_per_phase: int,
    num_slots: int,
    parent: np.ndarray,
    distance: np.ndarray,
) -> None:
    """Run one BFS phase with a single labelled reception call.

    Newly reached nodes only transmit from the next phase on, so no
    transmit decision of the phase depends on its receptions, and
    nothing is drawn between its epochs: one block-form
    :func:`decay_transmit_matrix` call, one frontier-sized block per
    epoch, draws the whole phase.  Slot ``epoch·num_slots + s`` labels
    each transmission; labelled output is sorted by (label, receiver),
    so the first occurrence of a receiver is its earliest reception,
    whose sender it adopts — as the per-slot loop does.  Only unreached
    nodes listen, so every receiver adopts.
    """
    if not epochs_per_phase:
        return  # a zero-epoch phase elapses silently
    m = frontier.size
    coins = decay_transmit_matrix([m] * epochs_per_phase, rng, num_slots)
    slot, col = np.nonzero(coins)
    epoch, idx = np.divmod(col, m)
    tx_ids = frontier[idx]
    receivers, entries, _ = network.resolve_round_vector(
        tx_ids, slot + epoch * num_slots, epochs_per_phase * num_slots,
        listeners=distance < 0,
    )
    adopters, first = _sorted_unique(receivers, return_index=True)
    parent[adopters] = tx_ids[entries[first]]
    distance[adopters] = phase + 1
