"""Pin the RNG-visible ordering contract of ``resolve_round``.

Fault layers consume one RNG draw per successful reception while
iterating ``received.items()`` — so the *iteration order* of the dict a
resolver returns is part of the reproducibility contract, not a detail.
The reception kernel must emit receivers in ascending node order, in
agreement with the per-transmitter scan oracle
(``RadioNetwork.resolve_round_scan``), and the resulting end-to-end RNG
stream is pinned by digest so any future resolver change that silently
reorders receptions (and thereby shifts every downstream random draw)
fails loudly here.

That digest is taken behind a recording proxy, so every stage runs its
dict loop.  The direct path (bare network, no trace) is pinned by value
too, since the agreement tests in ``test_columnar_properties.py`` and
``test_engine_equivalence.py`` only compare it with the dict loop.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import MultipleMessageBroadcast, grid, uniform_random_placement
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import RadioNetwork
from repro.radio.rng import make_rng
from repro.radio.transcript import RecordingNetwork
from repro.testing import transcript_digest
from repro.topology import hypercube, random_geometric

# Computed once from the pinned run below.  If this changes, the RNG
# stream of every seeded experiment changes.
PINNED_DIGEST = "cff3ba645098bba27d8f358bfd24914297ad75bea6d913b72923d9a16612ddbf"
PINNED_ROUNDS = 5707


# Full runs on bare networks (the direct path of every stage driver),
# digested with the final generator state.  These pin the direct path
# by value: a biased coin shared by the direct path and its dict loop
# would pass every agreement test but move these digests.
PINNED_COLUMNAR_DIRECT = {
    "grid7x9-k12": (
        "69b08441832d6765cb28c2833949b37d29c9ceeb3282c27083202678c299b443"
    ),
    "rgg80-k30": (
        "0970336a853112fcdfc9d593849d70afe4890e7c3de97cb5f7e399149e731b2d"
    ),
}


# Test ids keep the names of the retired engine option.  "reference"
# puts a network behind a recording proxy, so every stage runs its dict
# loop; "columnar" leaves it bare, so an untraced run takes every
# direct path.
PATHS = {"reference": RecordingNetwork, "columnar": lambda net: net}


class ScanNetwork(RadioNetwork):
    """A network whose dict rounds go through the scan oracle, so layers
    stacked on it consume randomness in the scan's reception order."""

    resolve_round = RadioNetwork.resolve_round_scan


def _networks():
    return [grid(4, 6), random_geometric(30, seed=9), hypercube(4)]


def _random_tx_patterns(net, trials=120, seed=1234):
    rng = make_rng(seed)
    for _ in range(trials):
        count = int(rng.integers(0, net.n + 1))
        senders = rng.choice(net.n, size=count, replace=False)
        yield {int(v): f"m{int(v)}" for v in senders}


@pytest.mark.parametrize("path", list(PATHS))
def test_receivers_ascend(path):
    for net in _networks():
        net = PATHS[path](net)
        for tx in _random_tx_patterns(net):
            received = net.resolve_round(tx)
            keys = list(received)
            assert keys == sorted(keys), (
                f"{net.name}/{path}: receivers out of order: {keys}"
            )


def test_engines_agree_on_random_patterns():
    """Kernel and scan: same receptions, same values, same order —
    pattern by pattern."""
    for net in _networks():
        for tx in _random_tx_patterns(net, trials=150, seed=77):
            assert list(net.resolve_round(tx).items()) == list(
                net.resolve_round_scan(tx).items()
            )


@pytest.mark.parametrize("path", list(PATHS))
def test_fault_layer_rng_consumption_is_engine_invariant(path):
    """A jam/erasure layer draws per reception in iteration order; a
    fixed fault seed must therefore produce identical drops over the
    kernel (bare or behind a recording proxy) and over the scan (this
    is exactly what ascending order buys us)."""
    base = grid(5, 5)
    net = FaultyRadioNetwork(
        PATHS[path](base),
        erasure_prob=0.3,
        jammed_nodes=(3, 7, 12),
        jam_prob=0.5,
        seed=42,
    )
    outcomes = []
    for tx in _random_tx_patterns(base, trials=60, seed=5):
        outcomes.append(sorted(net.resolve_round(tx).items()))
    # pinned against the stream of a fault layer over the scan
    ref_base = ScanNetwork(base.edge_list(), n=base.n)
    ref_net = FaultyRadioNetwork(
        ref_base,
        erasure_prob=0.3,
        jammed_nodes=(3, 7, 12),
        jam_prob=0.5,
        seed=42,
    )
    expected = []
    for tx in _random_tx_patterns(ref_base, trials=60, seed=5):
        expected.append(sorted(ref_net.resolve_round(tx).items()))
    assert outcomes == expected
    assert (net.receptions_erased, net.receptions_jammed) == (
        ref_net.receptions_erased,
        ref_net.receptions_jammed,
    )


def _pinned_run(net):
    packets = uniform_random_placement(net, k=6, seed=3)
    proto = MultipleMessageBroadcast(net, seed=11)
    result = proto.run(packets)
    assert result.success
    return result, proto.rng.bit_generator.state


@pytest.mark.parametrize("path", list(PATHS))
def test_pinned_end_to_end_digest(path):
    """Full four-stage run, transcript digested round by round.

    The constant was computed at pin time and must be reproduced
    exactly.  A digest change means the RNG stream moved: bump the
    constant only for a deliberate, documented semantics change.

    The transcript is recorded behind a recording proxy, which keeps
    every stage on its dict loop.  Under ``columnar`` the same run on
    the bare network (every direct path, no transcript) must also end
    in the recorded run's per-stage rounds and generator state; the
    direct paths are pinned by value by PINNED_COLUMNAR_DIRECT below.
    """
    rec = RecordingNetwork(grid(4, 5))
    recorded, recorded_rng = _pinned_run(rec)
    assert recorded.total_rounds == PINNED_ROUNDS
    assert transcript_digest(rec.transcript) == PINNED_DIGEST
    if path == "columnar":
        direct, direct_rng = _pinned_run(grid(4, 5))
        assert direct.timing == recorded.timing
        assert direct_rng == recorded_rng


def _columnar_direct_digest(net, k, packet_seed, run_seed):
    """sha256 over per-stage rounds, leader, claimants and beliefs, the
    BFS tree, ``has_group``, the Stage-4 counters and the final
    generator state of one run on a bare network (every direct path)."""
    packets = uniform_random_placement(net, k=k, seed=packet_seed)
    proto = MultipleMessageBroadcast(net, seed=run_seed)
    result = proto.run(packets)
    assert result.success
    t = result.timing
    diss = result.dissemination
    record = {
        "rounds": [t.leader_election, t.bfs, t.collection, t.dissemination],
        "leader": result.leader,
        "claimants": result.election.claimants,
        "belief": result.election.belief_by_node,
        "parent": result.bfs.parent,
        "distance": result.bfs.distance,
        "counters": [
            diss.coded_transmissions,
            diss.innovative_receptions,
            diss.plain_transmissions,
        ],
        "rng": proto.rng.bit_generator.state,
    }
    h = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    h.update(np.ascontiguousarray(diss.has_group).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name, make, k, packet_seed, run_seed",
    [
        ("grid7x9-k12", lambda: grid(7, 9), 12, 3, 11),
        ("rgg80-k30", lambda: random_geometric(80, seed=5), 30, 4, 13),
    ],
)
def test_pinned_columnar_direct_digest(name, make, k, packet_seed, run_seed):
    assert (
        _columnar_direct_digest(make(), k, packet_seed, run_seed)
        == PINNED_COLUMNAR_DIRECT[name]
    )


def test_resolver_contract_documented_in_reference():
    """The ascending-order guarantee must hold even for the trivial
    empty and singleton cases (no silent fast-path shortcuts)."""
    net = RadioNetwork([(0, 1), (1, 2)])
    for resolve in (net.resolve_round, net.resolve_round_scan):
        assert resolve({}) == {}
        assert resolve({1: "x"}) == {0: "x", 2: "x"}
        assert list(resolve({1: "x"})) == [0, 2]
