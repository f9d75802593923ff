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

The columnar engine's direct path (bare network, no trace) is pinned by
value too, since the agreement tests in ``test_columnar_properties.py``
only compare it with its own dict fallback.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import MultipleMessageBroadcast, grid, uniform_random_placement
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import ENGINES, RadioNetwork
from repro.radio.rng import make_rng
from repro.radio.transcript import RecordingNetwork
from repro.testing import transcript_digest
from repro.topology import hypercube, random_geometric

# Computed once from the pinned run below.  If this changes, the RNG
# stream of every seeded experiment changes.
PINNED_DIGEST = "1a38c82d465be6ab7e07e241dd03c915c5e8ad17a6eb447d331422f454b57283"
PINNED_ROUNDS = 5707


# Full columnar runs on bare networks (the direct path of every stage
# driver), digested with the final generator state.  These pin the direct
# path by value: a biased coin shared by the direct path and its dict
# fallback would pass every agreement test but move these digests.
PINNED_COLUMNAR_DIRECT = {
    "grid7x9-k12": (
        "69b08441832d6765cb28c2833949b37d29c9ceeb3282c27083202678c299b443"
    ),
    "rgg80-k30": (
        "0970336a853112fcdfc9d593849d70afe4890e7c3de97cb5f7e399149e731b2d"
    ),
}


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


@pytest.mark.parametrize("engine", ENGINES)
def test_receivers_ascend(engine):
    for net in _networks():
        net.set_engine(engine)
        for tx in _random_tx_patterns(net):
            received = net.resolve_round(tx)
            keys = list(received)
            assert keys == sorted(keys), (
                f"{net.name}/{engine}: receivers out of order: {keys}"
            )


def test_engines_agree_on_random_patterns():
    """Kernel and scan: same receptions, same values, same order —
    pattern by pattern."""
    for net in _networks():
        for tx in _random_tx_patterns(net, trials=150, seed=77):
            assert list(net.resolve_round(tx).items()) == list(
                net.resolve_round_scan(tx).items()
            )


@pytest.mark.parametrize("engine", ENGINES)
def test_fault_layer_rng_consumption_is_engine_invariant(engine):
    """A jam/erasure layer draws per reception in iteration order; a
    fixed fault seed must therefore produce identical drops over the
    kernel (under any engine) and over the scan (this is exactly what
    ascending order buys us)."""
    base = grid(5, 5)
    base.set_engine(engine)
    net = FaultyRadioNetwork(
        base,
        erasure_prob=0.3,
        jammed_nodes=(3, 7, 12),
        jam_prob=0.5,
        seed=42,
    )
    net.set_engine(engine)
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


# Only the reference engine is digest-pinned: the ``columnar`` engine
# batches RNG draws and is gated by the semantic-equivalence oracles
# instead (``repro.testing.semantic``).
@pytest.mark.parametrize("engine", ["reference"])
def test_pinned_end_to_end_digest(engine):
    """Full four-stage run, transcript digested round by round.

    The constant was computed at pin time and must be reproduced
    exactly.  A digest change means the RNG stream moved: bump the
    constant only for a deliberate, documented semantics change.
    """
    net = grid(4, 5)
    net.set_engine(engine)
    rec = RecordingNetwork(net)
    packets = uniform_random_placement(rec, k=6, seed=3)
    result = MultipleMessageBroadcast(rec, seed=11).run(packets)
    assert result.success
    assert result.total_rounds == PINNED_ROUNDS
    assert transcript_digest(rec.transcript) == PINNED_DIGEST


def test_columnar_end_to_end_same_outcome():
    """Same pinned run under the columnar engine: the RNG stream (and
    hence the digest) legitimately differs, but the protocol outcome —
    success, full delivery — must match the reference run."""
    net = grid(4, 5)
    net.set_engine("columnar")
    rec = RecordingNetwork(net)
    packets = uniform_random_placement(rec, k=6, seed=3)
    result = MultipleMessageBroadcast(rec, seed=11).run(packets)
    assert result.success
    assert result.informed_fraction == 1.0


def _columnar_direct_digest(net, k, packet_seed, run_seed):
    """sha256 over per-stage rounds, leader, claimants and beliefs, the
    BFS tree, ``has_group``, the Stage-4 counters and the final
    generator state of one columnar run on a bare network."""
    net.set_engine("columnar")
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
