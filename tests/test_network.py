"""Unit tests for RadioNetwork: construction, metrics, reception semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.errors import TopologyError
from repro.radio.network import RadioNetwork
from repro.topology.generators import _disk_edges


class TestConstruction:
    def test_basic_edge_list(self):
        net = RadioNetwork([(0, 1), (1, 2)])
        assert net.n == 3
        assert net.num_edges == 2

    def test_duplicate_edges_collapse(self):
        net = RadioNetwork([(0, 1), (1, 0), (0, 1)])
        assert net.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            RadioNetwork([(0, 0)])

    def test_negative_id_rejected(self):
        with pytest.raises(TopologyError, match="negative"):
            RadioNetwork([(-1, 2)])

    def test_edge_beyond_n_rejected(self):
        with pytest.raises(TopologyError, match="n=2"):
            RadioNetwork([(0, 3)], n=2)

    def test_disconnected_rejected_by_default(self):
        with pytest.raises(TopologyError, match="disconnected"):
            RadioNetwork([(0, 1), (2, 3)])

    def test_disconnected_allowed_when_requested(self):
        net = RadioNetwork([(0, 1), (2, 3)], require_connected=False)
        assert net.n == 4
        assert not net.is_connected()

    def test_isolated_node_via_explicit_n(self):
        net = RadioNetwork([(0, 1)], n=3, require_connected=False)
        assert net.degree(2) == 0

    def test_empty_network_rejected(self):
        with pytest.raises(TopologyError):
            RadioNetwork([], n=0)

    def test_single_node(self):
        net = RadioNetwork([], n=1)
        assert net.n == 1
        assert net.diameter == 1  # clamped floor by convention
        assert net.max_degree == 1  # clamped so log terms stay sane

    def test_from_adjacency(self):
        net = RadioNetwork.from_adjacency([[1], [0, 2], [1]])
        assert net.n == 3
        assert net.has_edge(0, 1) and net.has_edge(1, 2)
        assert not net.has_edge(0, 2)


    @pytest.mark.parametrize("form", ["list", "generator", "numpy"])
    def test_constructor_matches_set_adjacency(self, form):
        """The array-built CSR against per-node neighbor sets, for edge
        lists with duplicates, both directions and isolated nodes."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            pairs = [
                (int(u), int(v))
                for u, v in rng.integers(0, n, size=(int(rng.integers(0, 60)), 2))
                if u != v
            ]
            pairs += pairs[: len(pairs) // 3]  # duplicates
            pairs += [(v, u) for u, v in pairs[: len(pairs) // 4]]
            edges = {
                "list": pairs,
                "generator": (pair for pair in pairs),
                "numpy": np.array(pairs, dtype=np.int64).reshape(-1, 2),
            }[form]
            net = RadioNetwork(edges, n=n, require_connected=False)
            adjacency = [set() for _ in range(n)]
            for u, v in pairs:
                adjacency[u].add(v)
                adjacency[v].add(u)
            indptr, indices = net.csr_adjacency()
            assert indptr.dtype == indices.dtype == np.int64
            assert indptr.tolist() == np.cumsum(
                [0] + [len(a) for a in adjacency]
            ).tolist()
            for v in range(n):
                assert net.neighbors(v).dtype == np.int64
                assert net.neighbors(v).tolist() == sorted(adjacency[v])
                assert net.degree(v) == len(adjacency[v])
                assert (
                    indices[indptr[v]:indptr[v + 1]].tolist()
                    == sorted(adjacency[v])
                )
            assert net.num_edges == sum(map(len, adjacency)) // 2
            assert net.edge_list() == sorted(
                {(min(u, v), max(u, v)) for u, v in pairs}
            )

    @pytest.mark.parametrize("as_array", [False, True])
    def test_first_offending_edge_is_reported(self, as_array):
        def build(pairs, **kwargs):
            edges = np.array(pairs, dtype=np.int64) if as_array else pairs
            return RadioNetwork(edges, **kwargs)

        with pytest.raises(TopologyError, match=r"^self-loop at node 2$"):
            build([(0, 1), (2, 2), (-1, 3)])
        with pytest.raises(
            TopologyError, match=r"^negative node id in edge \(-1, 3\)$"
        ):
            build([(0, 1), (-1, 3), (2, 2)])
        with pytest.raises(TopologyError, match=r"^self-loop at node -4$"):
            build([(-4, -4), (0, -1)])
        with pytest.raises(
            TopologyError, match=r"^edge references node 5 but n=3$"
        ):
            build([(0, 1), (5, 2)], n=3)
        with pytest.raises(
            TopologyError, match=r"^network must have at least one node$"
        ):
            build([], n=0)

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            RadioNetwork([(0, 1, 2)])
        with pytest.raises(ValueError, match="pairs"):
            RadioNetwork(np.arange(6).reshape(2, 3))


class TestMetrics:
    def test_degrees(self):
        net = RadioNetwork([(0, 1), (0, 2), (0, 3)])
        assert net.degree(0) == 3
        assert net.degree(1) == 1
        assert net.max_degree == 3

    def test_neighbors_sorted(self):
        net = RadioNetwork([(2, 0), (2, 3), (2, 1)])
        assert net.neighbors(2).tolist() == [0, 1, 3]

    def test_bfs_distances_path(self):
        net = RadioNetwork([(0, 1), (1, 2), (2, 3)])
        assert net.bfs_distances(0).tolist() == [0, 1, 2, 3]
        assert net.bfs_distances(3).tolist() == [3, 2, 1, 0]

    def test_bfs_layers(self):
        net = RadioNetwork([(0, 1), (0, 2), (1, 3), (2, 3)])
        layers = net.bfs_layers(0)
        assert layers[0] == [0]
        assert sorted(layers[1]) == [1, 2]
        assert layers[2] == [3]

    def test_bfs_tree_is_valid(self):
        net = RadioNetwork([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        parent = net.bfs_tree(0)
        assert parent[0] == -1
        dist = net.bfs_distances(0)
        for v in range(1, net.n):
            assert net.has_edge(v, parent[v])
            assert dist[v] == dist[parent[v]] + 1

    def test_diameter_path(self):
        net = RadioNetwork([(i, i + 1) for i in range(9)])
        assert net.diameter == 9

    def test_diameter_cached(self):
        net = RadioNetwork([(0, 1), (1, 2)])
        assert net.diameter == 2
        assert net._diameter == 2  # cached

    def test_eccentricity(self):
        net = RadioNetwork([(0, 1), (1, 2), (2, 3)])
        assert net.eccentricity(0) == 3
        assert net.eccentricity(1) == 2

    def test_edge_list_sorted_pairs(self):
        net = RadioNetwork([(3, 1), (0, 2), (1, 0)])
        edges = net.edge_list()
        assert all(u < v for u, v in edges)
        assert set(edges) == {(1, 3), (0, 2), (0, 1)}

    def test_diameter_of_disconnected_network(self):
        # a path of 4 (D=3), a triangle, and two isolated nodes
        net = RadioNetwork(
            [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)],
            n=9,
            require_connected=False,
        )
        assert net.diameter == net.diameter_scan() == 3
        isolated = RadioNetwork([], n=5, require_connected=False)
        assert isolated.diameter == isolated.diameter_scan() == 1


@st.composite
def graph_families(draw):
    """Edge lists from the families iFUB must get right: paths, stars,
    random trees, cliques, barbells, caterpillars, G(n, p), random
    geometric graphs, disjoint unions with isolated nodes, and n = 1."""
    family = draw(
        st.sampled_from(
            ["path", "star", "tree", "clique", "barbell", "caterpillar",
             "gnp", "rgg", "union", "single"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "single":
        return 1, []
    if family == "path":
        n = draw(st.integers(2, 60))
        return n, [(i, i + 1) for i in range(n - 1)]
    if family == "star":
        n = draw(st.integers(2, 40))
        return n, [(0, i) for i in range(1, n)]
    if family == "tree":
        n = draw(st.integers(2, 80))
        return n, [(int(rng.integers(0, i)), i) for i in range(1, n)]
    if family == "clique":
        n = draw(st.integers(2, 12))
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if family == "barbell":
        c, p = draw(st.integers(2, 6)), draw(st.integers(0, 12))
        left = [(i, j) for i in range(c) for j in range(i + 1, c)]
        path = [(c - 1 + i, c + i) for i in range(p + 1)]
        right = [
            (c + p + i, c + p + j) for i in range(c) for j in range(i + 1, c)
        ]
        return 2 * c + p, left + path + right
    if family == "caterpillar":
        spine, legs = draw(st.integers(1, 15)), draw(st.integers(0, 4))
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [
            (s, spine + s * legs + j) for s in range(spine) for j in range(legs)
        ]
        return spine * (legs + 1), edges
    if family == "gnp":
        n = draw(st.integers(2, 50))
        p = draw(st.floats(0.02, 0.5))
        return n, [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
    if family == "rgg":
        n = draw(st.integers(2, 150))
        radius = draw(st.floats(0.05, 0.4))
        return n, _disk_edges(rng.random((n, 2)), radius)
    # union: a random tree, a random G(n, p) and a few isolated nodes,
    # with the node ids shuffled
    a, b, iso = (draw(st.integers(1, 30)), draw(st.integers(1, 30)),
                 draw(st.integers(0, 4)))
    edges = [(int(rng.integers(0, i)), i) for i in range(1, a)]
    edges += [
        (a + i, a + j) for i in range(b) for j in range(i + 1, b)
        if rng.random() < 0.15
    ]
    n = a + b + iso
    perm = rng.permutation(n)
    return n, [(int(perm[u]), int(perm[v])) for u, v in edges]


@settings(max_examples=150, deadline=None)
@given(graph_families())
def test_ifub_diameter_matches_all_sources_sweep(case):
    n, edges = case
    net = RadioNetwork(edges, n=n, require_connected=False)
    assert net.diameter == net.diameter_scan()


class TestReceptionRule:
    """The heart of the model: exactly-one-transmitting-neighbor."""

    def test_single_transmitter_delivers_to_all_neighbors(self):
        net = RadioNetwork([(0, 1), (0, 2), (0, 3)])
        received = net.resolve_round({0: "msg"})
        assert received == {1: "msg", 2: "msg", 3: "msg"}

    def test_two_transmitters_collide_at_common_neighbor(self):
        # 1 and 2 both transmit; 0 hears both -> hears nothing.
        net = RadioNetwork([(0, 1), (0, 2)])
        received = net.resolve_round({1: "a", 2: "b"})
        assert 0 not in received

    def test_collision_is_per_receiver_not_global(self):
        # 0-1, 0-3, 2-3: 1 and 3 transmit. 0 hears both -> collision.
        # 2 hears only 3 -> receives.
        net = RadioNetwork([(0, 1), (0, 3), (2, 3)])
        received = net.resolve_round({1: "a", 3: "b"})
        assert 0 not in received
        assert received[2] == "b"

    def test_transmitter_does_not_hear_itself(self):
        net = RadioNetwork([(0, 1)])
        received = net.resolve_round({0: "x"})
        assert 0 not in received
        assert received == {1: "x"}

    def test_half_duplex_transmitter_cannot_receive(self):
        # 0 and 1 are neighbors and both transmit: neither receives.
        net = RadioNetwork([(0, 1)])
        received = net.resolve_round({0: "a", 1: "b"})
        assert received == {}

    def test_transmitter_with_one_transmitting_neighbor_blocked(self):
        # chain 0-1-2: 0 and 1 transmit. 2 hears only 1 -> receives "b".
        # 1 transmits so cannot receive 0's message. 0 hears only 1 but
        # is itself transmitting.
        net = RadioNetwork([(0, 1), (1, 2)])
        received = net.resolve_round({0: "a", 1: "b"})
        assert received == {2: "b"}

    def test_no_transmissions(self):
        net = RadioNetwork([(0, 1)])
        assert net.resolve_round({}) == {}

    def test_messages_are_opaque(self):
        net = RadioNetwork([(0, 1)])
        payload = {"nested": [1, 2, 3]}
        received = net.resolve_round({0: payload})
        assert received[1] is payload

    def test_non_neighbor_does_not_receive(self):
        net = RadioNetwork([(0, 1), (2, 3), (1, 2)])
        received = net.resolve_round({0: "m"})
        assert set(received) == {1}

    def test_three_transmitters_still_collision(self):
        net = RadioNetwork([(0, 1), (0, 2), (0, 3)])
        received = net.resolve_round({1: "a", 2: "b", 3: "c"})
        assert 0 not in received

    def test_exactly_one_among_many_neighbors(self):
        # star: hub 0 with leaves 1..4; only leaf 2 transmits.
        net = RadioNetwork([(0, i) for i in range(1, 5)])
        received = net.resolve_round({2: "only"})
        assert received == {0: "only"}

    def test_random_rounds_match_bruteforce(self):
        """Property: resolve_round agrees with a brute-force reference."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            net = RadioNetwork(edges, n=n, require_connected=False)
            tx = {
                int(v): f"m{v}"
                for v in range(n)
                if rng.random() < 0.3
            }
            got = net.resolve_round(tx)
            # brute force
            expected = {}
            for v in range(n):
                if v in tx:
                    continue
                senders = [u for u in tx if net.has_edge(u, v)]
                if len(senders) == 1:
                    expected[v] = tx[senders[0]]
            assert got == expected
