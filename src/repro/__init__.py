"""repro — reproduction of Khabbazian & Kowalski, PODC 2011:
"Time-efficient randomized multiple-message broadcast in radio networks".

Quickstart
----------
>>> from repro import MultipleMessageBroadcast, grid, uniform_random_placement
>>> net = grid(5, 5)
>>> packets = uniform_random_placement(net, k=10, seed=1)
>>> result = MultipleMessageBroadcast(net, seed=7).run(packets)
>>> result.success, result.total_rounds  # doctest: +SKIP
(True, ...)

Package map
-----------
- :mod:`repro.radio` — the radio-network model (collision semantics).
- :mod:`repro.topology` — graph generators and metrics.
- :mod:`repro.coding` — GF(2) linear algebra and network coding.
- :mod:`repro.primitives` — Decay, BGI broadcast, leader election, BFS.
- :mod:`repro.core` — the paper's four-stage algorithm.
- :mod:`repro.baselines` — BII-style gossip and other comparators.
- :mod:`repro.analysis` — the paper's lemma bounds and predictors.
- :mod:`repro.experiments` — workloads, trial runner, table rendering.
- :mod:`repro.resilience` — fault schedules and self-healing supervision.
"""

from repro.apps import aggregate_convergecast
from repro.baselines import (
    decay_gossip_broadcast,
    sequential_bgi_broadcast,
    tdma_flood_broadcast,
    uncoded_pipeline_broadcast,
)
from repro.coding import (
    GroupDecoder,
    HardenedGroupDecoder,
    Packet,
    SubsetXorEncoder,
    packet_checksum,
    seal_message,
    verify_message,
)
from repro.coding.packets import make_packets, required_packet_bits
from repro.core import (
    AlgorithmParameters,
    MultiBroadcastResult,
    MultipleMessageBroadcast,
)
from repro.dynamic import (
    BatchedDynamicBroadcast,
    BurstProcess,
    ChurnNetwork,
    ChurnSchedule,
    ContinuousBroadcast,
    ContinuousPolicy,
    ContinuousResult,
    PeriodicProcess,
    PoissonProcess,
    build_arrival_process,
    burst_arrivals,
    churn_from_mobility,
    periodic_arrivals,
    poisson_arrivals,
    random_churn_schedule,
)
from repro.mac import AbstractMacLayer, mac_flood_broadcast
from repro.experiments import (
    all_nodes_one_packet,
    hotspot_placement,
    single_source_burst,
    uniform_random_placement,
)
from repro.radio import RadioNetwork, SinrRadioNetwork, make_rng
from repro.resilience import (
    AdversaryStack,
    BudgetedJammer,
    CorruptionChannel,
    DynamicFaultNetwork,
    FaultSchedule,
    ReactiveJammer,
    SupervisedBroadcast,
    SupervisionPolicy,
    make_adversary,
    random_crash_schedule,
    run_adversarial_trial,
)
from repro.topology import (
    balanced_tree,
    barbell,
    caterpillar,
    clique,
    grid,
    hypercube,
    line,
    mobile_rgg,
    random_connected_gnp,
    random_geometric,
    ring,
    star,
    torus,
)

__version__ = "1.0.0"

__all__ = [
    "AbstractMacLayer",
    "AdversaryStack",
    "AlgorithmParameters",
    "BatchedDynamicBroadcast",
    "BudgetedJammer",
    "BurstProcess",
    "ChurnNetwork",
    "ChurnSchedule",
    "ContinuousBroadcast",
    "ContinuousPolicy",
    "ContinuousResult",
    "CorruptionChannel",
    "DynamicFaultNetwork",
    "FaultSchedule",
    "GroupDecoder",
    "HardenedGroupDecoder",
    "MultiBroadcastResult",
    "MultipleMessageBroadcast",
    "Packet",
    "PeriodicProcess",
    "PoissonProcess",
    "RadioNetwork",
    "ReactiveJammer",
    "SinrRadioNetwork",
    "SubsetXorEncoder",
    "SupervisedBroadcast",
    "SupervisionPolicy",
    "aggregate_convergecast",
    "all_nodes_one_packet",
    "balanced_tree",
    "barbell",
    "build_arrival_process",
    "burst_arrivals",
    "caterpillar",
    "churn_from_mobility",
    "clique",
    "decay_gossip_broadcast",
    "grid",
    "hotspot_placement",
    "hypercube",
    "line",
    "mac_flood_broadcast",
    "make_adversary",
    "mobile_rgg",
    "make_packets",
    "make_rng",
    "packet_checksum",
    "periodic_arrivals",
    "poisson_arrivals",
    "random_churn_schedule",
    "random_connected_gnp",
    "random_crash_schedule",
    "random_geometric",
    "required_packet_bits",
    "ring",
    "run_adversarial_trial",
    "seal_message",
    "sequential_bgi_broadcast",
    "single_source_burst",
    "star",
    "tdma_flood_broadcast",
    "torus",
    "uncoded_pipeline_broadcast",
    "uniform_random_placement",
    "verify_message",
]
