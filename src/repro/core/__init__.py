"""The paper's algorithm: randomized multiple-message broadcast.

The public entry point is :class:`MultipleMessageBroadcast`
(:mod:`repro.core.multibroadcast`), which chains the four stages:

1. leader election (:mod:`repro.primitives.leader_election`),
2. distributed BFS (:mod:`repro.primitives.bfs`),
3. packet collection (:mod:`repro.core.collection` — OSPG / MSPG / GRAB /
   ALARM),
4. coded dissemination (:mod:`repro.core.dissemination` — FORWARD with
   random linear network coding, pipelined down the BFS layers).

All tunable constants live in :class:`AlgorithmParameters`
(:mod:`repro.core.config`); the defaults are practical laptop-scale
settings, and :meth:`AlgorithmParameters.paper` gives conservative,
bound-faithful ones.
"""

from repro.core.config import AlgorithmParameters
from repro.core.collection import CollectionResult, run_collection_stage
from repro.core.dissemination import DisseminationResult, run_dissemination_stage
from repro.core.reference import (
    reference_forward_pipeline,
    reference_gather_procedure,
)
from repro.core.multibroadcast import (
    MultiBroadcastResult,
    MultipleMessageBroadcast,
    StageTiming,
)

__all__ = [
    "AlgorithmParameters",
    "CollectionResult",
    "DisseminationResult",
    "MultiBroadcastResult",
    "MultipleMessageBroadcast",
    "StageTiming",
    "reference_forward_pipeline",
    "reference_gather_procedure",
    "run_collection_stage",
    "run_dissemination_stage",
]
