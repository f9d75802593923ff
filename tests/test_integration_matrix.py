"""Integration matrix: the full algorithm across topology × workload ×
configuration combinations, at small scale.

Breadth insurance: every cell runs the complete four-stage pipeline and
checks end-to-end success plus cross-cutting result invariants.
"""

import numpy as np
import pytest

from repro import AlgorithmParameters, MultipleMessageBroadcast
from repro.experiments.workloads import (
    all_nodes_one_packet,
    hotspot_placement,
    single_source_burst,
    uniform_random_placement,
)
from repro.topology import (
    balanced_tree,
    barbell,
    caterpillar,
    grid,
    hypercube,
    line,
    ring,
    star,
    torus,
)

TOPOLOGIES = [
    line(9),
    ring(10),
    star(10),
    grid(3, 4),
    balanced_tree(2, 3),
    caterpillar(4, 2),
    barbell(3, 2),
    hypercube(3),
    torus(3, 4),
]

WORKLOADS = [
    ("uniform", lambda net: uniform_random_placement(net, k=6, seed=5)),
    ("single-source", lambda net: single_source_burst(net, k=6, source=0,
                                                      seed=5)),
    ("all-nodes", lambda net: all_nodes_one_packet(net, seed=5)),
    ("hotspot", lambda net: hotspot_placement(net, k=6, seed=5)),
]


@pytest.mark.parametrize("net", TOPOLOGIES,
                         ids=lambda net: net.name.split("(")[0])
@pytest.mark.parametrize("workload_name,make", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_full_pipeline_cell(net, workload_name, make):
    packets = make(net)
    result = MultipleMessageBroadcast(net, seed=31).run(packets)
    # end-to-end success (default budgets are w.h.p.; a single seeded run
    # per cell keeps the matrix honest — a flaky cell means budgets are
    # miscalibrated for that regime, which we want to see)
    assert result.success, (net.name, workload_name)
    # cross-cutting invariants
    assert result.total_rounds == result.timing.total
    assert result.k == len(packets)
    assert 0 <= result.leader < net.n
    assert result.informed_fraction == 1.0
    assert sorted(result.collection.collected_order) == sorted(
        p.pid for p in packets
    )
    assert result.dissemination.has_group.all()


@pytest.mark.parametrize(
    "params",
    [
        AlgorithmParameters.fast(),
        AlgorithmParameters(),
        AlgorithmParameters.paper(),
        AlgorithmParameters(opportunistic_decoding=True),
        AlgorithmParameters(coding_enabled=False,
                            forward_epochs_factor=6.0),
        AlgorithmParameters(group_spacing=4),
        AlgorithmParameters(ospg_window_factor=4),
        AlgorithmParameters(root_plain_repetitions=4),
        AlgorithmParameters(mspg_enabled=False,
                            max_collection_phases=60),
    ],
    ids=["fast", "default", "paper", "opportunistic", "uncoded-fwd",
         "spacing4", "window4", "root-reps", "no-mspg"],
)
def test_configuration_cell(params):
    net = grid(3, 4)
    packets = uniform_random_placement(net, k=8, seed=9)
    result = MultipleMessageBroadcast(net, params=params, seed=17).run(packets)
    assert result.success
    assert result.informed_fraction == 1.0
