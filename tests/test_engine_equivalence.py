"""The two engines give the identical run, and a trace does not change it.

Both engines run the same stage drivers, which draw their randomness in
one canonical order; ``columnar`` only lets a driver take its direct
(array) path on a bare network without a trace.  So the columnar engine
is held to the reference engine's digests:

- on the 12 pinned scenarios (fault stacks, so every stage runs its dict
  loop under either engine) the two runs are equal in every digest,
  round count, summary and delivery set; on two of them the reference
  run is also replayed against the per-transmitter scan, so reference,
  scan and columnar are checked together;
- full runs on bare networks (the direct paths under ``columnar``) equal
  the reference engine's down to the final generator state, with and
  without a trace attached: observing a run must not change it.

A coin bias shared by the direct path and the dict loop would pass these;
``PINNED_DIGEST`` and ``PINNED_COLUMNAR_DIRECT`` in
``test_rng_stream_order.py`` pin the stream by value, and the oracles in
``repro.primitives.reference`` and ``repro.core.reference`` share no
coin code with the drivers.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import MultipleMessageBroadcast, grid, uniform_random_placement
from repro.core.config import AlgorithmParameters
from repro.radio.network import ENGINES
from repro.testing import (
    PINNED_SCENARIOS,
    replay_against_scan,
    run_scenario,
    scenario_by_name,
)
from repro.topology import hypercube, random_geometric


@pytest.mark.parametrize("scenario", PINNED_SCENARIOS, ids=lambda s: s.name)
def test_columnar_run_equals_reference(scenario):
    reference, _, _ = run_scenario(scenario, "reference")
    columnar, _, _ = run_scenario(scenario, "columnar")
    assert columnar.engine == "columnar"
    assert dataclasses.replace(columnar, engine="reference") == reference


@pytest.mark.parametrize("name", ["grid-clean", "hypercube-byzantine"])
def test_three_way_scan_replay_and_columnar_agree(name):
    """Reference, scan and columnar on one scenario: every round of the
    reference run re-resolves identically under the per-transmitter
    scan, and the columnar run equals that same reference run."""
    scenario = scenario_by_name(name)
    replay = replay_against_scan(scenario)
    assert replay.equal, replay.explain()
    columnar, _, _ = run_scenario(scenario, "columnar")
    assert dataclasses.replace(columnar, engine="reference") == replay.run


def _run_record(make, k, packet_seed, run_seed, engine, keep_trace,
                overrides=None):
    """Everything a full run decides, and the final generator state."""
    net = make()
    packets = uniform_random_placement(net, k=k, seed=packet_seed)
    params = AlgorithmParameters(engine=engine).with_overrides(
        **(overrides or {})
    )
    proto = MultipleMessageBroadcast(
        net, params=params, seed=run_seed, keep_trace=keep_trace
    )
    result = proto.run(packets)
    assert (result.trace is not None) == keep_trace
    diss = result.dissemination
    record = {
        "success": result.success,
        "rounds": dataclasses.astuple(result.timing),
        "leader": result.leader,
        "claimants": result.election.claimants,
        "belief": result.election.belief_by_node,
        "parent": result.bfs.parent,
        "distance": result.bfs.distance,
        "collected": result.collection.collected_order,
        "counters": [
            diss.coded_transmissions,
            diss.innovative_receptions,
            diss.plain_transmissions,
        ],
        "has_group": hashlib.sha256(
            np.ascontiguousarray(diss.has_group).tobytes()
        ).hexdigest(),
        "rng": proto.rng.bit_generator.state,
    }
    return json.loads(json.dumps(record, default=int))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "make, k, packet_seed",
    [
        (lambda: grid(9, 9), 12, 3),
        (lambda: random_geometric(80, seed=4), 20, 4),
    ],
    ids=["grid9x9-k12", "rgg80-k20"],
)
def test_trace_leaves_run_unchanged(make, k, packet_seed, engine):
    """``keep_trace=True`` moves every stage to its dict loop; the run,
    saturated BGI epochs included, must be the untraced one."""
    untraced = _run_record(make, k, packet_seed, 3, engine, False)
    traced = _run_record(make, k, packet_seed, 3, engine, True)
    assert traced == untraced


NETWORKS = {
    "grid8x8": lambda: grid(8, 8),
    "grid13x9": lambda: grid(13, 9),
    "rgg120": lambda: random_geometric(120, seed=3),
    "hypercube6": lambda: hypercube(6),
}

OVERRIDES = {
    "defaults": {},
    "opportunistic": {"opportunistic_decoding": True},
    "uncoded": {"coding_enabled": False},
    "spacing1-reps2": {"group_spacing": 1, "root_plain_repetitions": 2},
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "overrides", list(OVERRIDES.values()), ids=list(OVERRIDES)
)
@pytest.mark.parametrize(
    "make", list(NETWORKS.values()), ids=list(NETWORKS)
)
def test_bare_network_runs_equal_across_engines_and_traces(
    make, overrides, seed
):
    """Four-stage runs with 40 packets: columnar untraced (every direct
    path) against the reference engine and against traced runs.  The
    uncoded and spacing-1 ablations need not succeed; they must agree."""
    baseline = _run_record(make, 40, seed, seed, "columnar", False, overrides)
    for engine in ENGINES:
        for keep_trace in (False, True):
            if (engine, keep_trace) == ("columnar", False):
                continue
            assert _run_record(
                make, 40, seed, seed, engine, keep_trace, overrides
            ) == baseline, (engine, keep_trace)
