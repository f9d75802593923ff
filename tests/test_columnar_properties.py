"""Property tests pitting the columnar kernels against naive oracles.

Hypothesis drives random topologies, transmit sets, and seeds through
the vectorized building blocks the direct paths are made of — the CSR
reception resolver, the batched Decay schedule — and checks them against
deliberately naive pure-Python reimplementations.  Degenerate shapes the
array code paths are most likely to get wrong (no transmitters, isolated
nodes, a single-node network, a fully-connected clique) get explicit
cases on top of the random sweep.

Labelled (multi-round) resolution is checked against one
``resolve_round_scan`` call per round, in both of the kernel's
formulations (fresh arrays for small calls, the reused workspace for
large ones), and a listener mask against the unmasked call.

Stronger, deterministic equivalences ride along, each down to the
final generator state:

- the BFS driver's direct path is RNG-stream-identical to its dict
  loop, so their parent/distance arrays must match *exactly*;
- the columnar flood's and election's direct (``resolve_round_vector``)
  and fallback (dict ``resolve_round`` through a proxy) modes consume
  the same RNG stream, so wrapping the network must not change any
  outcome;
- so do the columnar Stage-4 driver's direct mode (flat coin rows,
  epoch-batched mask draws, phase-batched resolution and GF(2)
  elimination) and its fallback (wire tuples and hardened decoders,
  slot by slot), which rests on the numpy properties pinned by
  ``test_float32_carriers_match_power_of_two_mask_draws`` and
  ``test_epoch_batched_integer_draws_match_per_slot_calls``, and on
  the layout pinned by
  ``test_flat_coin_rows_match_block_form_decay_matrix``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.radio.network as network_module
from repro.coding.packets import make_packets, required_packet_bits
from repro.core.config import AlgorithmParameters
from repro.core.dissemination import run_dissemination_stage
from repro.primitives.bfs import build_distributed_bfs
from repro.primitives.bgi_broadcast import bgi_broadcast
from repro.primitives.decay import (
    decay_block_layout,
    decay_transmit_matrix,
    transmission_probabilities,
)
from repro.primitives.leader_election import elect_leader
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import RadioNetwork
from repro.radio.rng import make_rng
from repro.radio.transcript import RecordingNetwork
from repro.topology import (
    clique,
    grid,
    hypercube,
    line,
    random_geometric,
    ring,
    star,
    torus,
)


def naive_resolve(network, tx_set):
    """The paper's reception rule, coded as plainly as possible."""
    received = {}
    for v in range(network.n):
        if v in tx_set:
            continue
        talking = sorted(u for u in network.neighbors(v) if u in tx_set)
        if len(talking) == 1:
            received[v] = talking[0]
    return received


@st.composite
def sparse_network_and_tx(draw, max_n=24):
    """A possibly-disconnected graph (isolated nodes allowed) plus a
    transmit set."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(
            st.lists(
                st.sampled_from(pairs),
                max_size=3 * n,
                unique=True,
            )
        )
        if pairs
        else []
    )
    tx = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    net = RadioNetwork(edges, n=n, require_connected=False)
    return net, tx


@st.composite
def connected_network(draw, max_n=20):
    """A random connected graph: a random attachment tree plus extras."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extras = draw(
        st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)
    )
    seen = set(map(frozenset, edges))
    for e in extras:
        if frozenset(e) not in seen:
            edges.append(e)
            seen.add(frozenset(e))
    return RadioNetwork(edges, n=n)


# ----------------------------------------------------------------------
# CSR reception resolver vs the naive oracle
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(sparse_network_and_tx())
def test_vector_resolver_matches_naive_oracle(net_tx):
    net, tx = net_tx
    receivers, senders = net.resolve_round_vector(
        np.array(sorted(tx), dtype=np.int64)
    )
    expected = naive_resolve(net, tx)
    assert [int(v) for v in receivers] == sorted(expected)
    for rcv, snd in zip(receivers, senders):
        assert expected[int(rcv)] == int(snd)


@settings(max_examples=40, deadline=None)
@given(sparse_network_and_tx(), st.data())
def test_vector_resolver_matches_dict_resolver(net_tx, data):
    """The dict adapter over the CSR kernel against the scan oracle and
    the naive rule.  Fed transmissions in shuffled insertion order with
    distinct message objects, it returns the scan's items in the scan's
    order, the naive receiver set, each receiver the very object its
    sender sent, and what the vector API delivers."""
    net, tx = net_tx
    order = data.draw(st.permutations(sorted(tx)))
    messages = {v: object() for v in order}
    received = net.resolve_round(messages)
    assert list(received.items()) == list(
        net.resolve_round_scan(messages).items()
    )
    expected = naive_resolve(net, tx)
    assert set(received) == set(expected)
    for rcv, message in received.items():
        assert message is messages[expected[rcv]]
    receivers, senders = net.resolve_round_vector(
        np.array(order, dtype=np.int64)
    )
    assert receivers.tolist() == list(received)
    for rcv, snd in zip(receivers.tolist(), senders.tolist()):
        assert received[rcv] is messages[snd]


def test_vector_resolver_degenerate_cases():
    # single-node network: nothing to receive, ever
    solo = RadioNetwork([], n=1, require_connected=False)
    r, s = solo.resolve_round_vector(np.array([], dtype=np.int64))
    assert r.size == 0 and s.size == 0
    r, s = solo.resolve_round_vector(np.array([0], dtype=np.int64))
    assert r.size == 0

    # isolated transmitter: its signal reaches nobody
    iso = RadioNetwork([(0, 1)], n=3, require_connected=False)
    r, s = iso.resolve_round_vector(np.array([2], dtype=np.int64))
    assert r.size == 0
    r, s = iso.resolve_round_vector(np.array([0, 2], dtype=np.int64))
    assert list(r) == [1] and list(s) == [0]

    # fully-connected clique: one transmitter reaches everyone, two
    # transmitters jam everyone
    kn = clique(6)
    r, s = kn.resolve_round_vector(np.array([3], dtype=np.int64))
    assert list(r) == [0, 1, 2, 4, 5]
    assert set(s.tolist()) == {3}
    r, s = kn.resolve_round_vector(np.array([1, 4], dtype=np.int64))
    assert r.size == 0

    # empty transmit set
    r, s = kn.resolve_round_vector(np.array([], dtype=np.int64))
    assert r.size == 0


@st.composite
def labelled_rounds(draw, max_n=16):
    """A possibly-disconnected graph plus several rounds' transmit sets
    (empty rounds and nodes transmitting in several rounds included),
    flattened in shuffled order under gappy round labels."""
    net, _ = draw(sparse_network_and_tx(max_n=max_n))
    tx_sets = draw(
        st.lists(st.sets(st.integers(0, net.n - 1)), max_size=6)
    )
    labels = sorted(
        draw(
            st.sets(
                st.integers(0, 50),
                min_size=len(tx_sets),
                max_size=len(tx_sets),
            )
        )
    )
    entries = [(lab, v) for lab, tx in zip(labels, tx_sets) for v in tx]
    order = draw(st.permutations(range(len(entries))))
    return net, dict(zip(labels, tx_sets)), [entries[i] for i in order]


#: Incidence limits that send every labelled call to one formulation.
KERNEL_FORMS = {"compact": 10**9, "workspace": -1}


def _in_form(form):
    """Pin the labelled kernel to one formulation for the block."""
    return mock.patch.object(
        network_module, "_COMPACT_INCIDENCES", KERNEL_FORMS[form]
    )


@settings(max_examples=80, deadline=None)
@given(labelled_rounds(max_n=20))
def test_labelled_resolution_matches_per_round_calls(case):
    """Each round of a labelled call against :meth:`resolve_round_scan`
    on that round alone, in both formulations.  The graphs have
    isolated nodes, so some transmitters have no neighbors, and nodes
    transmit in several rounds."""
    net, rounds, entries = case
    tx = np.array([v for _, v in entries], dtype=np.int64)
    lab = np.array([label for label, _ in entries], dtype=np.int64)
    expected = [
        (label, receiver, sender)
        for label in sorted(rounds)
        for receiver, sender in net.resolve_round_scan(
            {v: v for v in rounds[label]}
        ).items()
    ]
    for form in KERNEL_FORMS:
        with _in_form(form):
            out = net.resolve_round_vector(tx, lab)
        assert all(a.dtype == np.int64 for a in out)
        receivers, which, labels = out
        got = list(
            zip(labels.tolist(), receivers.tolist(), tx[which].tolist())
        )
        assert got == expected, form
        assert (lab[which] == labels).all()


@settings(max_examples=80, deadline=None)
@given(
    labelled_rounds(max_n=20),
    st.sampled_from(["empty", "full", "transmitters", "random"]),
    st.data(),
)
def test_listener_mask_keeps_exactly_the_receptions_at_listeners(
    case, kind, data
):
    """A masked labelled call returns the unmasked call's receptions at
    listening nodes, element for element and in the same dtypes, in
    both formulations.  Masks run from empty to full; "transmitters"
    makes every transmitter listen, so its half-duplex sentinel must
    still silence it, and isolated nodes listen but hear nothing."""
    net, _, entries = case
    tx = np.array([v for _, v in entries], dtype=np.int64)
    lab = np.array([label for label, _ in entries], dtype=np.int64)
    listeners = np.zeros(net.n, dtype=bool)
    if kind == "full":
        listeners[:] = True
    elif kind == "transmitters":
        listeners[tx] = True
    elif kind == "random":
        listeners[:] = data.draw(
            st.lists(st.booleans(), min_size=net.n, max_size=net.n)
        )
    isolated = np.diff(net.csr_adjacency()[0]) == 0
    listeners[isolated] |= kind != "empty"
    receivers, which, labels = net.resolve_round_vector(tx, lab)
    keep = listeners[receivers]
    for form in KERNEL_FORMS:
        with _in_form(form):
            got = net.resolve_round_vector(tx, lab, listeners=listeners)
        assert all(a.dtype == np.int64 for a in got)
        for a, b in zip(got, (receivers[keep], which[keep], labels[keep])):
            assert a.tolist() == b.tolist(), form


def test_labelled_resolution_reuses_and_outgrows_its_workspace():
    """Calls of growing and shrinking size on one network, on the int32
    and (with round labels too large for int32 keys) the int64 path,
    each against the scan round by round, and each again under a
    listener mask against its own receptions at listeners."""
    net = random_geometric(120, seed=9)
    rng = np.random.default_rng(17)
    masks = np.random.default_rng(18)
    for size, label_base in [(40, 0), (900, 0), (30, 0), (600, 10**6),
                             (2000, 0), (50, 10**6)]:
        tx = rng.integers(0, net.n, size=size)
        lab = rng.integers(0, 12, size=size) + label_base
        keep = np.unique(lab * net.n + tx, return_index=True)[1]
        tx, lab = tx[keep], lab[keep]  # at most once per round
        order = rng.permutation(tx.size)
        tx, lab = tx[order], lab[order]
        receivers, which, labels = net.resolve_round_vector(tx, lab)
        expected = [
            (label, receiver, sender)
            for label in np.unique(lab).tolist()
            for receiver, sender in net.resolve_round_scan(
                {v: v for v in tx[lab == label].tolist()}
            ).items()
        ]
        got = list(
            zip(labels.tolist(), receivers.tolist(), tx[which].tolist())
        )
        assert got == expected
        listeners = masks.random(net.n) < 0.3
        keep = listeners[receivers]
        masked = net.resolve_round_vector(tx, lab, listeners=listeners)
        for a, b in zip(masked, (receivers[keep], which[keep], labels[keep])):
            assert a.dtype == np.int64
            assert a.tolist() == b.tolist()


def test_labelled_resolution_degenerate_cases():
    # path 1-0-2 plus the isolated node 3
    net = RadioNetwork([(0, 1), (0, 2)], n=4, require_connected=False)
    none = np.array([], dtype=np.int64)
    assert all(a.size == 0 for a in net.resolve_round_vector(none, none))
    isolated = net.resolve_round_vector(np.array([3]), np.array([0]))
    assert all(a.size == 0 for a in isolated)
    # the hub transmits in two rounds: each round's entry is told apart
    r, e, lab = net.resolve_round_vector(np.array([0, 0]), np.array([5, 1]))
    assert r.tolist() == [1, 2, 1, 2]
    assert e.tolist() == [1, 1, 0, 0]
    assert lab.tolist() == [1, 1, 5, 5]
    # half-duplex inside a round, none across rounds
    r, e, lab = net.resolve_round_vector(
        np.array([0, 1, 1]), np.array([2, 2, 3])
    )
    assert r.tolist() == [2, 0]
    assert e.tolist() == [0, 2]
    assert lab.tolist() == [2, 3]
    with pytest.raises(ValueError):
        net.resolve_round_vector(np.array([0]), np.array([-1]))
    with pytest.raises(ValueError):
        net.resolve_round_vector(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError, match="int64"):
        net.resolve_round_vector(np.array([0]), np.array([2**61]))
    with pytest.raises(ValueError, match="round labels"):
        net.resolve_round_vector(np.array([0]), listeners=np.ones(4, bool))
    with pytest.raises(ValueError, match="every node"):
        net.resolve_round_vector(
            np.array([0]), np.array([0]), listeners=np.ones(3, bool)
        )


def test_vector_capable_is_one_call_time_predicate(monkeypatch):
    net = grid(3, 3)
    assert RadioNetwork.vector_capable(net)
    assert not RadioNetwork.vector_capable(RecordingNetwork(net))
    assert not RadioNetwork.vector_capable(
        FaultyRadioNetwork(net, erasure_prob=0.1, seed=1)
    )
    assert not RadioNetwork.vector_capable(object())
    # Tracing replaces the class attribute with a wrapper; bare networks
    # must keep the vector path.
    original = RadioNetwork.resolve_round
    monkeypatch.setattr(
        RadioNetwork, "resolve_round", lambda self, tx: original(self, tx)
    )
    assert RadioNetwork.vector_capable(net)
    assert not RadioNetwork.vector_capable(RecordingNetwork(net))


# ----------------------------------------------------------------------
# Batched Decay schedule vs per-slot draws
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=40),
    blocks=st.lists(st.integers(min_value=0, max_value=12), max_size=6),
    num_slots=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_decay_matrix_bit_identical_to_per_slot_draws(
    m, blocks, num_slots, seed
):
    """The independent variant consumes the exact per-slot RNG stream:
    row s of the matrix equals the s-th sequential ``rng.random(m)``.

    The block form over sizes ``blocks`` is consecutive per-block draws
    side by side, element for element, in both variants, and leaves the
    generator where the per-block draws leave it."""
    probs = transmission_probabilities(num_slots)
    matrix = decay_transmit_matrix(m, make_rng(seed), num_slots)
    assert matrix.shape == (num_slots, m)
    oracle_rng = make_rng(seed)
    for s in range(num_slots):
        expected = oracle_rng.random(m) < probs[s]
        assert (matrix[s] == expected).all()

    column = np.array(probs)[:, None]
    for variant in ("independent", "classic"):
        rng = make_rng(seed)
        matrix = decay_transmit_matrix(blocks, rng, num_slots, variant)
        oracle_rng = make_rng(seed)
        expected = np.zeros((num_slots, 0), dtype=bool)
        for size in blocks:
            if variant == "independent":
                block = oracle_rng.random((num_slots, size)) < column
            else:
                stops = oracle_rng.geometric(0.5, size=size)
                block = np.arange(num_slots)[:, None] < stops[None, :]
            expected = np.concatenate([expected, block], axis=1)
        assert matrix.shape == (num_slots, sum(blocks))
        assert (matrix == expected).all()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


MASK_HIGHS = [1, 2, 3, 2**32, 2**40]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    epochs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),  # slots
            st.integers(min_value=0, max_value=12),  # coin columns
            st.lists(  # per slot: (high, size) per group
                st.lists(
                    st.tuples(
                        st.sampled_from(MASK_HIGHS),
                        st.integers(min_value=0, max_value=6),
                    ),
                    max_size=3,
                ),
                min_size=1,
                max_size=5,
            ),
        ),
        max_size=5,
    ),
)
def test_epoch_batched_integer_draws_match_per_slot_calls(seed, epochs):
    """Columnar Stage 4 draws an epoch's uncoded packet picks with one
    ``rng.integers`` call over per-element highs, where its fallback
    makes one call per slot and group.  The two are the same stream
    because numpy draws bounded integers element by element and PCG64
    keeps its spare 32-bit half-word in the generator state, not in the
    call.  This pins both facts, with coin doubles between epochs: a
    numpy release that breaks them fails here instead of silently
    moving every columnar run."""
    per_slot, batched = make_rng(seed), make_rng(seed)
    for slots, m, calls in epochs:
        coins = per_slot.random((slots, m))
        assert np.array_equal(batched.random((slots, m)), coins)
        expected = [
            per_slot.integers(0, high, size=size)
            for slot_calls in calls
            for high, size in slot_calls
            if size
        ]
        highs = np.array(
            [high for slot_calls in calls for high, size in slot_calls
             for _ in range(size)],
            dtype=np.int64,
        )
        if highs.size:
            got = batched.integers(0, highs)
            assert np.array_equal(got, np.concatenate(expected))
        assert batched.bit_generator.state == per_slot.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    epochs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),  # coin doubles
            st.lists(  # one mask call per slot and group: (width, size)
                st.tuples(
                    st.integers(min_value=1, max_value=24),
                    st.integers(min_value=0, max_value=7),
                ),
                max_size=6,
            ),
        ),
        max_size=6,
    ),
)
def test_float32_carriers_match_power_of_two_mask_draws(seed, epochs):
    """Columnar Stage 4 draws an epoch's subset masks as one float32
    *carrier* each, ``floor(carrier · 2^gs)``, where its fallback makes
    one ``rng.integers(0, 1 << gs)`` call per slot and group.  Both take
    one 32-bit word per element: Lemire's method never rejects on a
    power-of-two range and keeps the word's top ``gs`` bits, and a
    float32 keeps its top 24.  Epochs with an odd or zero count leave
    PCG64's spare half-word for the next epoch's call, across coin
    doubles, which take whole 64-bit words."""
    per_call, carried = make_rng(seed), make_rng(seed)
    for doubles, calls in epochs:
        coins = per_call.random(doubles)
        assert np.array_equal(carried.random(doubles), coins)
        expected = [
            per_call.integers(0, 1 << gs, size=size)
            for gs, size in calls
            if size
        ]
        widths = np.array(
            [gs for gs, size in calls for _ in range(size)], dtype=np.int64
        )
        carriers = carried.random(widths.size, dtype=np.float32)
        got = (carriers * np.left_shift(1, widths).astype(np.float32)).astype(
            np.int64
        )
        if expected:
            assert np.array_equal(got, np.concatenate(expected))
        assert carried.bit_generator.state == per_call.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=12), max_size=6),
    num_slots=st.integers(min_value=1, max_value=8),
    epochs=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_flat_coin_rows_match_block_form_decay_matrix(
    blocks, num_slots, epochs, seed
):
    """Columnar Stage 4 draws each epoch's coins into one flat row and
    keeps them in draw order, compared with
    :func:`decay_block_layout`'s thresholds; reordered once by its
    ``slot_major`` permutation, they are the block-form
    :func:`decay_transmit_matrix` of every epoch, zero-size blocks
    included, on the same stream."""
    thresholds, slot_major = decay_block_layout(blocks, num_slots)
    total = sum(blocks)
    assert thresholds.shape == slot_major.shape == (num_slots * total,)
    assert np.array_equal(np.sort(slot_major), np.arange(num_slots * total))
    by_matrix, by_row = make_rng(seed), make_rng(seed)
    expected = [
        decay_transmit_matrix(blocks, by_matrix, num_slots)
        for _ in range(epochs)
    ]
    row = np.empty(num_slots * total)
    coins = np.empty((epochs, num_slots * total), dtype=bool)
    for epoch in range(epochs):
        by_row.random(out=row)
        np.less(row, thresholds, out=coins[epoch])
    got = coins[:, slot_major].reshape(epochs, num_slots, total)
    assert np.array_equal(got, np.stack(expected))
    assert by_row.bit_generator.state == by_matrix.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=40),
    num_slots=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_decay_matrix_classic_variant_matches_geometric_oracle(
    m, num_slots, seed
):
    """Classic Decay transmits in a prefix of slots of geometric
    length; the matrix must be exactly that prefix per participant."""
    matrix = decay_transmit_matrix(
        m, make_rng(seed), num_slots, variant="classic"
    )
    stops = make_rng(seed).geometric(0.5, size=m)
    for i in range(m):
        prefix = min(int(stops[i]), num_slots)
        assert matrix[:prefix, i].all()
        assert not matrix[prefix:, i].any()


def test_decay_matrix_rejects_unknown_variant():
    with pytest.raises(ValueError):
        decay_transmit_matrix(3, make_rng(0), 4, variant="bogus")


# ----------------------------------------------------------------------
# Columnar stage drivers: deterministic equivalences
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    net=connected_network(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    root=st.integers(min_value=0, max_value=10**9),
)
def test_columnar_bfs_identical_to_reference(net, seed, root):
    """The BFS direct path (one labelled resolution per phase) consumes
    the dict loop's exact RNG stream, so parents, distances, and round
    counts must all match."""
    root = root % net.n
    col_net, ref_net = _columnar_pair(net)
    ref_rng, col_rng = make_rng(seed), make_rng(seed)
    ref = build_distributed_bfs(ref_net, root, ref_rng)
    col = build_distributed_bfs(col_net, root, col_rng)
    assert ref.rounds == col.rounds
    assert (np.asarray(ref.distance) == np.asarray(col.distance)).all()
    assert (np.asarray(ref.parent) == np.asarray(col.parent)).all()
    assert ref_rng.bit_generator.state == col_rng.bit_generator.state


def _columnar_pair(net):
    """Two copies of ``net``: bare (direct path) and behind a recording
    proxy (dict fallback)."""
    import copy

    return copy.deepcopy(net), RecordingNetwork(copy.deepcopy(net))


@settings(max_examples=30, deadline=None)
@given(
    net=connected_network(max_n=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    sources=st.lists(
        st.integers(min_value=0, max_value=10**9), min_size=1, max_size=3
    ),
    stop_early=st.booleans(),
)
def test_columnar_flood_direct_and_fallback_modes_agree(
    net, seed, sources, stop_early
):
    """Direct mode (one labelled resolution per epoch, transmitters
    with no uninformed neighbour pruned) and fallback mode (dict rounds
    through a recording proxy) draw the same RNG stream, so a wrapped
    network must produce the identical flood outcome."""
    sources = [s % net.n for s in sources]
    bare, wrapped = _columnar_pair(net)
    direct_rng, fallback_rng = make_rng(seed), make_rng(seed)
    direct = bgi_broadcast(
        bare, sources, direct_rng, message="x", stop_early=stop_early
    )
    fallback = bgi_broadcast(
        wrapped, sources, fallback_rng, message="x", stop_early=stop_early
    )
    assert direct.rounds == fallback.rounds
    assert direct.epochs == fallback.epochs
    assert direct.epochs_to_complete == fallback.epochs_to_complete
    assert (direct.informed == fallback.informed).all()
    assert direct_rng.bit_generator.state == fallback_rng.bit_generator.state
    # connected graph + default epoch budget: the flood saturates
    assert direct.informed.all()


@settings(max_examples=15, deadline=None)
@given(
    net=connected_network(max_n=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    candidates=st.lists(
        st.integers(min_value=0, max_value=10**9), min_size=1, max_size=4
    ),
)
def test_columnar_election_direct_and_fallback_modes_agree(
    net, seed, candidates
):
    """The election's BGI waves run on the direct path on a bare network
    and on the dict fallback behind a recording proxy; both draw the
    same stream, so every node must end with the same belief."""
    candidates = [c % net.n for c in candidates]
    bare, wrapped = _columnar_pair(net)
    direct_rng, fallback_rng = make_rng(seed), make_rng(seed)
    direct = elect_leader(bare, candidates, direct_rng)
    fallback = elect_leader(wrapped, candidates, fallback_rng)
    assert direct.rounds == fallback.rounds
    assert direct.claimants == fallback.claimants
    assert direct.belief_by_node == fallback.belief_by_node
    assert direct_rng.bit_generator.state == fallback_rng.bit_generator.state


STAGE4_OVERRIDES = {
    "defaults": {},
    "opportunistic": {"opportunistic_decoding": True},
    "uncoded": {"coding_enabled": False},
    "spacing1-reps2": {"group_spacing": 1, "root_plain_repetitions": 2},
    "short-budget": {"forward_epochs_factor": 0.3},
    # short enough that off-layer receptions change who decodes
    "opportunistic-short": {
        "opportunistic_decoding": True,
        "forward_epochs_factor": 0.7,
    },
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "overrides", list(STAGE4_OVERRIDES.values()), ids=list(STAGE4_OVERRIDES)
)
@pytest.mark.parametrize("topology", ["grid", "rgg"])
def test_columnar_dissemination_direct_and_fallback_modes_agree(
    topology, overrides, seed
):
    """Direct mode (one mask draw per epoch, one labelled resolution
    and one GF(2) elimination per phase) and fallback mode (per-slot
    mask draws, wire tuples slot by slot through a
    recording proxy, hardened decoders) draw the same RNG stream, so a
    wrapped network must produce the identical Stage-4 outcome."""

    def make():
        if topology == "grid":
            return grid(6, 7)
        return random_geometric(60, seed=seed)

    bare = make()
    wrapped = RecordingNetwork(make())
    root = (7 * seed) % bare.n
    distance = bare.bfs_distances(root)
    packets = make_packets(
        [root] * 20, required_packet_bits(bare.n), seed=seed
    )
    params = AlgorithmParameters().with_overrides(**overrides)
    direct_rng, fallback_rng = make_rng(seed), make_rng(seed)
    direct = run_dissemination_stage(
        bare, distance, root, packets, params, direct_rng
    )
    fallback = run_dissemination_stage(
        wrapped, distance, root, packets, params, fallback_rng
    )
    assert wrapped.transcript  # the fallback really ran
    assert direct.rounds == fallback.rounds
    assert (direct.has_group == fallback.has_group).all()
    assert direct.innovative_receptions == fallback.innovative_receptions
    assert direct.coded_transmissions == fallback.coded_transmissions
    assert direct.plain_transmissions == fallback.plain_transmissions
    assert direct.complete == fallback.complete
    assert direct_rng.bit_generator.state == fallback_rng.bit_generator.state
    if overrides.get("forward_epochs_factor") == 0.3:
        assert not direct.complete


# ----------------------------------------------------------------------
# Diameter hints
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: line(7),
        lambda: line(2),
        lambda: ring(9),
        lambda: ring(4),
        lambda: star(8),
        lambda: star(2),
        lambda: clique(5),
        lambda: grid(3, 6),
        lambda: grid(1, 4),
        lambda: hypercube(4),
        lambda: torus(4, 6),
        lambda: torus(3, 3),
    ],
)
def test_generator_diameter_hints_are_exact(make):
    net = make()
    hinted = net.diameter
    unhinted = RadioNetwork(
        [(u, v) for u in range(net.n) for v in net.neighbors(u) if u < v],
        n=net.n,
    )
    assert hinted == unhinted.diameter_scan() == unhinted.diameter
