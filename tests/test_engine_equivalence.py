"""The direct path and the dict loop give the identical run, and a trace
does not change it.

Every stage driver has one direct (array) path, taken on a bare network
with no trace, and one dict loop, taken everywhere else; both draw their
randomness in one canonical order.  Full runs on bare networks are
therefore held, down to the final generator state, to the same network
behind a recording proxy (every dict loop) and to traced runs (every
dict loop, observed): observing a run must not change it.  Counting
``RadioNetwork.resolve_round_vector`` calls shows which path each run
took.  Counting the transmissions Stage 4 hands that kernel shows its
second-window prune at work on a bare network, and counting its calls
shows a group too wide for the direct path's mask draw sent to the
dict loop.  The election's waves and the BFS phases pass the kernel
their uninformed or unreached nodes as listeners, so it returns them
no reception at a node that is already done.

The fault stacks of the 12 pinned scenarios always run the dict loop;
``test_differential_engines.py`` replays those runs against the
per-transmitter scan.  A coin bias shared by the direct path and the
dict loop would pass these; ``PINNED_DIGEST`` and
``PINNED_COLUMNAR_DIRECT`` in ``test_rng_stream_order.py`` pin the
stream by value, and the oracles in ``repro.primitives.reference`` and
``repro.core.reference`` share no coin code with the drivers.
"""

import dataclasses
import hashlib
import importlib
import json
import sys

import numpy as np
import pytest

from repro import MultipleMessageBroadcast, grid, uniform_random_placement
from repro.core import multibroadcast
from repro.core.config import AlgorithmParameters
from repro.radio.network import RadioNetwork
from repro.radio.transcript import RecordingNetwork
from repro.topology import hypercube, random_geometric


@pytest.fixture
def vector_calls(monkeypatch):
    """Counts ``resolve_round_vector`` calls by replacing the class
    attribute, as a tracing wrapper would."""
    calls = []
    original = RadioNetwork.resolve_round_vector

    def counted(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RadioNetwork, "resolve_round_vector", counted)
    return calls


def _run_record(net, k, packet_seed, run_seed, keep_trace, overrides=None):
    """Everything a full run decides, and the final generator state."""
    packets = uniform_random_placement(net, k=k, seed=packet_seed)
    params = AlgorithmParameters().with_overrides(**(overrides or {}))
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


# Test ids keep the names of the retired engine option.  "reference"
# puts a network behind a recording proxy, so every stage runs its dict
# loop; "columnar" leaves it bare, so an untraced run takes every
# direct path.
PATHS = {"reference": RecordingNetwork, "columnar": lambda net: net}


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize(
    "make, k, packet_seed",
    [
        (lambda: grid(9, 9), 12, 3),
        (lambda: random_geometric(80, seed=4), 20, 4),
    ],
    ids=["grid9x9-k12", "rgg80-k20"],
)
def test_trace_leaves_run_unchanged(make, k, packet_seed, path, vector_calls):
    """``keep_trace=True`` moves every stage to its dict loop; the run,
    saturated BGI epochs included, must be the untraced one, whether
    that took every direct path or every dict loop."""
    untraced = _run_record(PATHS[path](make()), k, packet_seed, 3, False)
    assert bool(vector_calls) == (path == "columnar")
    vector_calls.clear()
    traced = _run_record(make(), k, packet_seed, 3, True)
    assert not vector_calls
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


MATRIX = [
    pytest.param(make, overrides, seed, id=f"{net}-{name}-{seed}")
    for net, make in NETWORKS.items()
    for name, overrides in OVERRIDES.items()
    for seed in (0, 1)
] + [
    # Only spacing 1 lets a Stage-4 receiver transmit for another group
    # in the same phase.  These two runs tell apart a second-window
    # prune that drops a deficient node's own transmissions, which
    # changes what it hears (half-duplex); no other input does.
    pytest.param(
        lambda: grid(9, 9), OVERRIDES["spacing1-reps2"], seed,
        id=f"grid9x9-spacing1-reps2-{seed}",
    )
    for seed in (2, 3)
]


@pytest.mark.parametrize("make, overrides, seed", MATRIX)
def test_bare_network_runs_equal_across_engines_and_traces(
    make, overrides, seed, vector_calls
):
    """Four-stage runs with 40 packets, three ways: untraced on the bare
    network (every direct path), behind a recording proxy (every dict
    loop) and traced (every dict loop, observed).  The uncoded and
    spacing-1 ablations need not succeed; they must agree."""
    direct = _run_record(make(), 40, seed, seed, False, overrides)
    assert len(vector_calls) > 0
    runs = {
        "recorded": (RecordingNetwork(make()), False),
        "traced": (make(), True),
    }
    for name, (net, keep_trace) in runs.items():
        vector_calls.clear()
        assert _run_record(
            net, 40, seed, seed, keep_trace, overrides
        ) == direct, name
        assert not vector_calls, name


@pytest.fixture
def stage4_kernel(monkeypatch):
    """Counts the ``resolve_round_vector`` calls, and the transmissions
    handed to them, while Stage 4 runs: the kernel's class attribute is
    replaced, as in ``vector_calls``, and so is
    ``run_dissemination_stage`` where ``MultipleMessageBroadcast`` looks
    it up."""
    count = {"calls": 0, "tx": 0}
    inside = [False]
    original = RadioNetwork.resolve_round_vector

    def counted(self, tx_ids, *args, **kwargs):
        if inside[0]:
            count["calls"] += 1
            count["tx"] += len(tx_ids)
        return original(self, tx_ids, *args, **kwargs)

    stage = multibroadcast.run_dissemination_stage

    def watched(*args, **kwargs):
        inside[0] = True
        try:
            return stage(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(RadioNetwork, "resolve_round_vector", counted)
    monkeypatch.setattr(multibroadcast, "run_dissemination_stage", watched)
    return count


@pytest.mark.parametrize(
    "make, overrides",
    [
        (lambda: grid(13, 9), OVERRIDES["defaults"]),
        (lambda: grid(13, 9), OVERRIDES["uncoded"]),
        (lambda: random_geometric(120, seed=3), OVERRIDES["opportunistic"]),
        (lambda: grid(9, 9), OVERRIDES["spacing1-reps2"]),
    ],
    ids=["grid13x9", "grid13x9-uncoded", "rgg120-opportunistic",
         "grid9x9-spacing1-reps2"],
)
def test_stage4_kernel_gets_only_receptions_a_decoder_can_use(
    make, overrides, stage4_kernel
):
    """On a bare network, the second window of each FORWARD phase hands
    the kernel only transmissions near a node still lacking a group in
    flight, so Stage 4's kernel sees fewer transmissions than Stage 4
    drew; the run is still its dict-loop twin's."""
    direct = _run_record(make(), 40, 2, 2, False, overrides)
    coded, _, plain = direct["counters"]
    assert 0 < stage4_kernel["tx"] < coded + plain
    stage4_kernel["tx"] = 0
    recorded = _run_record(
        RecordingNetwork(make()), 40, 2, 2, False, overrides
    )
    assert stage4_kernel["tx"] == 0
    assert recorded == direct


def test_groups_wider_than_a_float32_carrier_take_the_dict_loop(
    monkeypatch, vector_calls, stage4_kernel
):
    """The direct path cuts each subset mask from a float32 carrier,
    which holds 24 random bits, so a group of 25 packets (n > 2^24)
    sends Stage 4 to its dict loop even on a bare network.  The other
    stages keep their direct paths, and the run is its recorded twin's
    in every field."""
    monkeypatch.setattr(
        AlgorithmParameters, "group_width", lambda self, n: 25
    )
    direct = _run_record(grid(8, 8), 40, 1, 1, False)
    assert direct["counters"][0] > 0
    assert len(vector_calls) > 0
    assert stage4_kernel["calls"] == 0
    vector_calls.clear()
    recorded = _run_record(RecordingNetwork(grid(8, 8)), 40, 1, 1, False)
    assert not vector_calls
    assert recorded == direct


@pytest.mark.parametrize(
    "make",
    [lambda: grid(13, 9), lambda: random_geometric(120, seed=3)],
    ids=["grid13x9", "rgg120"],
)
def test_floods_get_receptions_only_at_nodes_not_yet_done(
    make, monkeypatch
):
    """Every receiver a kernel call returns to an election wave is still
    uninformed, and every one it returns to a BFS phase still unreached,
    when the call returns: checked against the caller's own
    ``informed`` and ``distance`` arrays, which it updates only after
    the call.  The election's direct path draws its coins without
    ``decay_transmit_matrix``, yet consumes its stream: the run is its
    recorded twin's, whose dict loop makes those calls."""
    calls = {"bgi_broadcast": 0, "_bfs_phase_direct": 0, "decay": 0}
    kernel = RadioNetwork.resolve_round_vector
    # the module, which the package's function of the same name shadows
    bgi = importlib.import_module("repro.primitives.bgi_broadcast")
    draw = bgi.decay_transmit_matrix

    def checked(self, *args, **kwargs):
        out = kernel(self, *args, **kwargs)
        caller = sys._getframe(1)
        name = caller.f_code.co_name
        if name == "bgi_broadcast":
            assert not caller.f_locals["informed"][out[0]].any()
            calls[name] += 1
        elif name == "_bfs_phase_direct":
            assert (caller.f_locals["distance"][out[0]] < 0).all()
            calls[name] += 1
        return out

    def counted(*args, **kwargs):
        calls["decay"] += 1
        return draw(*args, **kwargs)

    monkeypatch.setattr(RadioNetwork, "resolve_round_vector", checked)
    monkeypatch.setattr(bgi, "decay_transmit_matrix", counted)
    direct = _run_record(make(), 40, 2, 2, False)
    assert calls["bgi_broadcast"] > 0 and calls["_bfs_phase_direct"] > 0
    assert calls["decay"] == 0
    recorded = _run_record(RecordingNetwork(make()), 40, 2, 2, False)
    assert calls["decay"] > 0
    assert recorded == direct
