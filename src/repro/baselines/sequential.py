"""Sequential per-packet BGI broadcast: the naive upper baseline.

Packets are broadcast one at a time; packet ``i+1`` starts only after
packet ``i``'s fixed broadcast window of ``O((D + log n)·logΔ)`` rounds
elapses.  (Nodes cannot detect global completion, so a fixed window is the
honest schedule.)  Amortized cost per packet is ``Θ((D + log n)·logΔ)`` —
the baseline the BII 1993 result already improves on, included to anchor
the comparison from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.coding.packets import Packet
from repro.primitives.bgi_broadcast import bgi_broadcast, default_broadcast_epochs
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace


@dataclass
class SequentialBroadcastResult:
    rounds: int
    complete: bool
    k: int
    per_packet_complete: List[bool]

    @property
    def amortized_rounds_per_packet(self) -> float:
        return self.rounds / max(self.k, 1)


def sequential_bgi_broadcast(
    network: RadioNetwork,
    packets: Sequence[Packet],
    rng: np.random.Generator,
    epochs_per_packet: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
) -> SequentialBroadcastResult:
    """Broadcast each packet in its own fixed BGI window, back to back."""
    if epochs_per_packet is None:
        epochs_per_packet = default_broadcast_epochs(network)

    rounds = 0
    per_packet: List[bool] = []
    for p in packets:
        result = bgi_broadcast(
            network,
            [p.origin],
            rng,
            message=p.pid,
            epochs=epochs_per_packet,
            stop_early=False,
            trace=trace,
            round_offset=rounds,
        )
        rounds += result.rounds
        per_packet.append(result.complete)

    return SequentialBroadcastResult(
        rounds=rounds,
        complete=all(per_packet) if per_packet else True,
        k=len(packets),
        per_packet_complete=per_packet,
    )
