"""BGI randomized broadcast (Bar-Yehuda, Goldreich, Itai 1992).

A single message, held initially by one or more *sources*, is flooded by
repeated Decay epochs: every node that knows the message participates in
every subsequent epoch.  After ``O(D + log n)`` epochs of ``O(log Δ)``
slots each, all nodes know the message w.h.p. — this is the
``O((D + log n) log Δ)`` bound the paper cites.

The multi-source case (used by the paper's ALARM epoch) needs no change:
as the paper argues, broadcasting one message from many sources is no
slower than from a single super-source attached to all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.primitives.decay import (
    _probability_column,
    decay_slots,
    decay_transmit_matrix,
)
from repro.radio.network import RadioNetwork, _sorted_unique
from repro.radio.trace import RoundTrace


@dataclass
class BroadcastResult:
    """Outcome of a BGI broadcast run.

    Attributes
    ----------
    rounds:
        Total rounds (slots) consumed.
    epochs:
        Number of Decay epochs executed.
    informed:
        Boolean array: which nodes know the message at the end.
    complete:
        Whether every node was informed.
    epochs_to_complete:
        Epoch index (1-based) at which the last node was informed, or -1
        if the run ended incomplete.
    """

    rounds: int
    epochs: int
    informed: np.ndarray
    complete: bool
    epochs_to_complete: int


def default_broadcast_epochs(network: RadioNetwork, factor: float = 4.0) -> int:
    """The ``O(D + log n)`` epoch budget with an explicit constant."""
    n = max(network.n, 2)
    return max(1, math.ceil(factor * (network.diameter + math.log2(n))))


def bgi_broadcast(
    network: RadioNetwork,
    sources: Iterable[int],
    rng: np.random.Generator,
    message: object = True,
    epochs: Optional[int] = None,
    stop_early: bool = False,
    num_slots: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
) -> BroadcastResult:
    """Flood ``message`` from ``sources`` to the whole network.

    Parameters
    ----------
    epochs:
        Fixed epoch budget.  Defaults to :func:`default_broadcast_epochs`.
        Protocols that embed the broadcast in a fixed-length schedule (the
        alarm epoch) must pass their budget and leave ``stop_early`` False
        so the time cost is deterministic.
    stop_early:
        When measuring completion time, stop as soon as everyone is
        informed (an omniscient-observer shortcut that does not alter the
        protocol's behaviour, only when we stop simulating it).

    Notes
    -----
    All informed nodes participate in every epoch, exactly as in the BGI
    protocol; "informed" spreads monotonically.  Each epoch's transmit
    decisions come from the stream of one :func:`decay_transmit_matrix`
    draw over the participants.  Once every node is informed, the
    remaining budgeted epochs are charged to the round counter without
    being simulated, with or without a trace: by the monotonicity of
    "informed" they cannot change any state, so their coins are never
    drawn.

    On a :meth:`~RadioNetwork.vector_capable` network without a trace
    the epoch is the unit of work: its participant set is fixed, so one
    labelled :meth:`RadioNetwork.resolve_round_vector` call resolves all
    of its slots, and only the uninformed nodes listen.  The epoch's
    doubles come from one ``rng.random(out=...)`` into a ``(slots,
    participants)`` view of a reused row, the stream
    :func:`decay_transmit_matrix` would draw, so this path makes no call
    to it.  On a bare network only the frontier, the participants with
    an uninformed neighbour, has its coins compared and its
    transmissions resolved (every participant's doubles are still
    drawn): any other transmission reaches only informed nodes, and
    removing it can only turn collisions at informed nodes into
    receptions there.  A fault layer on the direct path (crashes, link
    faults and certain jams as masks) gets every participant, because
    it counts the receptions it drops at informed nodes too.  Every
    other network (randomized or adversarial faults, proxies) gets real
    transmission dicts, slot by slot, from a
    :func:`decay_transmit_matrix` call per epoch, so fault modeling and
    transcript recording see every round.  Both paths draw the same
    stream.
    """
    source_list = sorted(set(int(s) for s in sources))
    informed = np.zeros(network.n, dtype=bool)
    for s in source_list:
        informed[s] = True

    if epochs is None:
        epochs = default_broadcast_epochs(network)
    if num_slots is None:
        num_slots = decay_slots(network.max_degree)

    rounds = 0
    epochs_run = 0
    epochs_to_complete = 1 if informed.all() else -1

    if not source_list:
        return BroadcastResult(
            rounds=0,
            epochs=0,
            informed=informed,
            complete=bool(informed.all()),
            epochs_to_complete=epochs_to_complete,
        )

    direct = RadioNetwork.vector_capable(network) and trace is None
    # A fault layer counts receptions at informed nodes, so only a bare
    # network's participants are pruned.
    prune = direct and isinstance(network, RadioNetwork)
    if direct:
        # The epoch's coin doubles, drawn as decay_transmit_matrix draws
        # them, land in a (num_slots, participants) view of this row.
        row = np.empty(num_slots * network.n)
        probability = _probability_column(num_slots)
    if prune:
        # uninformed[v]: how many neighbours of v are not yet informed
        uninformed = np.diff(network.csr_adjacency()[0]) - np.bincount(
            network.gather_neighbors(np.flatnonzero(informed)),
            minlength=network.n,
        )
        # frontier[v]: v is informed and has an uninformed neighbour
        frontier = informed & (uninformed > 0)
    for epoch in range(epochs):
        if informed.all():
            # Saturated: every remaining epoch is state-invariant.
            # Charge its rounds; skip its coin flips and resolutions.
            remaining = epochs - epoch
            rounds += remaining * num_slots
            epochs_run += remaining
            break
        participants = np.flatnonzero(informed)
        if direct:
            draws = row[:num_slots * participants.size].reshape(
                num_slots, -1
            )
            rng.random(out=draws)
            if prune:
                senders = np.flatnonzero(frontier)
                draws = draws[:, np.searchsorted(participants, senders)]
                participants = senders
            slot, idx = np.nonzero(draws < probability)
            receivers, _, _ = network.resolve_round_vector(
                participants[idx], slot, num_slots, listeners=~informed
            )
            fresh = _sorted_unique(receivers)
            informed[fresh] = True
            if prune:
                nbrs = network.gather_neighbors(fresh)
                np.subtract.at(uninformed, nbrs, 1)
                frontier[fresh] = uninformed[fresh] > 0
                frontier[nbrs] &= uninformed[nbrs] > 0
        else:
            coins = decay_transmit_matrix(participants.size, rng, num_slots)
            for slot in range(num_slots):
                tx = participants[coins[slot]]
                transmissions = dict.fromkeys(tx.tolist(), message)
                received = network.resolve_round(transmissions)
                if trace is not None:
                    trace.observe(
                        round_offset + rounds + slot, transmissions, received
                    )
                for receiver in received:
                    informed[receiver] = True
        rounds += num_slots
        epochs_run += 1
        if epochs_to_complete < 0 and informed.all():
            epochs_to_complete = epochs_run
            if stop_early:
                break
    return BroadcastResult(
        rounds=rounds,
        epochs=epochs_run,
        informed=informed,
        complete=bool(informed.all()),
        epochs_to_complete=epochs_to_complete,
    )
