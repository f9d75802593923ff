"""Radio network model substrate.

This package implements the formal model of multi-hop radio networks used by
the paper: synchronous rounds over an undirected graph, where a node receives
a message in a round if and only if *exactly one* of its neighbors transmits
in that round (no collision detection).

The collision semantics live in a single place,
:meth:`RadioNetwork.resolve_round`, which every stage driver in the
library must use, so all simulations share identical physics.
"""

from repro.radio.errors import (
    ProtocolError,
    RadioModelError,
    SimulationLimitExceeded,
    TopologyError,
)
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import RadioNetwork, popcount_u64
from repro.radio.protocol import Node, ProtocolOutcome, Simulator
from repro.radio.rng import make_rng, spawn_rngs
from repro.radio.sinr import SinrRadioNetwork
from repro.radio.trace import RoundRecord, RoundTrace

__all__ = [
    "FaultyRadioNetwork",
    "popcount_u64",
    "Node",
    "ProtocolError",
    "ProtocolOutcome",
    "RadioModelError",
    "RadioNetwork",
    "RoundRecord",
    "RoundTrace",
    "SimulationLimitExceeded",
    "Simulator",
    "SinrRadioNetwork",
    "TopologyError",
    "make_rng",
    "spawn_rngs",
]
