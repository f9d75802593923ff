"""Unit tests for the topology generators."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from repro.radio.errors import TopologyError
from repro.topology import (
    balanced_tree,
    barbell,
    caterpillar,
    clique,
    grid,
    line,
    mobile_rgg,
    random_connected_gnp,
    random_geometric,
    ring,
    star,
)
from repro.topology.generators import _disk_edges


def dense_disk_edges(points, radius):
    """The n×n oracle for :func:`_disk_edges`: every pair's squared
    distance from one broadcast difference array, upper triangle in
    row-major order."""
    n = points.shape[0]
    deltas = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
    close = dist2 <= radius * radius
    iu = np.triu_indices(n, k=1)
    mask = close[iu]
    return list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))


def edge_digest(edges):
    return hashlib.sha256(
        repr([(int(u), int(v)) for u, v in edges]).encode()
    ).hexdigest()[:16]


class TestLine:
    def test_structure(self):
        net = line(5)
        assert net.n == 5
        assert net.num_edges == 4
        assert net.diameter == 4
        assert net.max_degree == 2

    def test_single_node(self):
        assert line(1).n == 1

    def test_invalid(self):
        with pytest.raises(TopologyError):
            line(0)


class TestRing:
    def test_structure(self):
        net = ring(6)
        assert net.n == 6
        assert net.num_edges == 6
        assert net.diameter == 3
        assert all(net.degree(v) == 2 for v in net.nodes())

    def test_odd_ring_diameter(self):
        assert ring(7).diameter == 3

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            ring(2)


class TestStar:
    def test_structure(self):
        net = star(10)
        assert net.n == 10
        assert net.degree(0) == 9
        assert net.max_degree == 9
        assert net.diameter == 2

    def test_two_nodes(self):
        assert star(2).diameter == 1

    def test_invalid(self):
        with pytest.raises(TopologyError):
            star(1)


class TestClique:
    def test_structure(self):
        net = clique(5)
        assert net.num_edges == 10
        assert net.diameter == 1
        assert net.max_degree == 4

    def test_invalid(self):
        with pytest.raises(TopologyError):
            clique(1)


class TestGrid:
    def test_structure(self):
        net = grid(3, 4)
        assert net.n == 12
        assert net.diameter == 3 + 4 - 2
        assert net.max_degree == 4

    def test_degenerate_is_line(self):
        net = grid(1, 5)
        assert net.diameter == 4
        assert net.max_degree == 2

    def test_edge_count(self):
        # rows*(cols-1) + cols*(rows-1)
        net = grid(3, 3)
        assert net.num_edges == 3 * 2 + 3 * 2

    def test_invalid(self):
        with pytest.raises(TopologyError):
            grid(0, 3)


class TestBalancedTree:
    def test_node_count(self):
        net = balanced_tree(2, 3)
        assert net.n == 1 + 2 + 4 + 8

    def test_depth_zero(self):
        assert balanced_tree(3, 0).n == 1

    def test_diameter(self):
        assert balanced_tree(2, 3).diameter == 6

    def test_max_degree(self):
        # root has b children; internal nodes b+1 neighbors
        assert balanced_tree(3, 2).max_degree == 4

    def test_invalid(self):
        with pytest.raises(TopologyError):
            balanced_tree(0, 2)


class TestCaterpillar:
    def test_node_count(self):
        net = caterpillar(4, 3)
        assert net.n == 4 + 4 * 3

    def test_max_degree(self):
        # middle spine node: 2 spine neighbors + legs
        net = caterpillar(5, 3)
        assert net.max_degree == 5

    def test_diameter_includes_legs(self):
        # leaf - spine(0..4) - leaf
        assert caterpillar(5, 1).diameter == 6


class TestBarbell:
    def test_structure(self):
        net = barbell(4, 3)
        assert net.n == 4 + 3 + 4
        assert net.max_degree >= 4
        # leftmost clique nodes to rightmost: through the path
        assert net.diameter == 3 + 1 + 2

    def test_connected(self):
        assert barbell(3, 0).is_connected()


class TestRandomGeometric:
    def test_connected_and_reproducible(self):
        a = random_geometric(50, seed=42)
        b = random_geometric(50, seed=42)
        assert a.is_connected()
        assert a.edge_list() == b.edge_list()

    def test_different_seeds_differ(self):
        a = random_geometric(50, seed=1)
        b = random_geometric(50, seed=2)
        assert a.edge_list() != b.edge_list()

    def test_radius_one_is_clique(self):
        net = random_geometric(10, radius=2.0, seed=0)
        assert net.num_edges == 45

    def test_impossible_radius_raises(self):
        with pytest.raises(TopologyError, match="connected"):
            random_geometric(30, radius=1e-6, seed=0, max_attempts=3)


    # (n, radius, seed) -> (edges, edge-list digest, diameter), recorded
    # from the n×n generator these replaced
    PINNED = {
        (60, None, 0): (161, "c5fcf4e8468e4d1c", 11),
        (60, None, 7): (155, "b6ce1400b03aacf4", 13),
        (300, None, 3): (1240, "ed776ecb4db63441", 20),
        (200, 0.15, 11): (1185, "b1c073114e080f29", 11),
        (1000, None, 1): (5512, "15268d2612706ca6", 30),
    }

    @pytest.mark.parametrize("key", sorted(PINNED, key=str))
    def test_edge_lists_pinned(self, key):
        n, radius, seed = key
        net = random_geometric(n, radius=radius, seed=seed)
        edges = net.edge_list()
        assert (len(edges), edge_digest(edges), net.diameter) == self.PINNED[key]

    def test_memory_is_linear(self):
        """No n×n array: the dense generator needs 400 MB here."""
        tracemalloc.start()
        try:
            random_geometric(5000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestDiskEdges:
    @staticmethod
    def check(points, radius):
        got = _disk_edges(points, radius)
        assert got.dtype == np.int64 and got.shape[1:] == (2,)
        assert list(map(tuple, got.tolist())) == dense_disk_edges(
            points, radius
        )

    def test_random_clouds(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(1, 400))
            radius = float(
                rng.choice([1e-9, 0.01, 0.03, 0.1, 0.3, 0.7, 1.0, 1.5])
            ) * float(rng.uniform(0.5, 1.5))
            self.check(rng.random((n, 2)), radius)

    def test_degenerate_clouds(self):
        rng = np.random.default_rng(5)
        self.check(np.zeros((0, 2)), 0.1)
        self.check(np.array([[0.3, 0.4]]), 0.1)
        self.check(rng.random((50, 2)), 1.0)  # one cell: a clique
        self.check(rng.random((50, 2)), 2.0)
        self.check(rng.random((50, 2)), -0.2)  # the sign is squared away
        twins = np.repeat(rng.random((20, 2)), 3, axis=0)  # duplicates
        self.check(twins, 0.0)
        self.check(twins, 1e-12)
        self.check(twins, 0.05)
        line = np.column_stack([rng.random(80), np.full(80, 0.5)])
        self.check(line, 0.02)  # no extent along y

    def test_points_on_cell_borders(self):
        # lattices whose spacing is the radius, so pairs sit exactly at
        # the radius and on cell borders, also nudged by one ulp
        for k in (3, 7, 10, 16):
            r = 1.0 / k
            axis = np.arange(k + 1) * r
            xs, ys = np.meshgrid(axis, axis)
            lattice = np.column_stack([xs.ravel(), ys.ravel()])
            for pts in (lattice, np.nextafter(lattice, 2.0),
                        np.nextafter(lattice, -1.0)):
                self.check(pts, r)
                self.check(pts, r * math.sqrt(2))

    def test_mobile_rgg_pinned(self):
        # (n, epochs, seed, step) -> (footprint edges and digest, epoch
        # digests, epoch sizes, diameter), recorded from the n×n version
        pinned = {
            (16, 4, 3, 0.08): (47, "b3085d65972c3925", [
                "de26e925beb84736", "234c46234bf8c98a",
                "35e26a5672aae981", "5515f401ef7b5349"], [38, 30, 29, 26], 4),
            (12, 3, 7, 0.05): (18, "3285306fbee90ad1", [
                "9ce22c3cc9193aa8", "cf8ff30b266e0e2a",
                "57d21d1e76d65fd0"], [15, 12, 13], 6),
            (40, 3, 5, 0.05): (140, "468233772e06f7b6", [
                "634200412ec976f5", "33c7ec456e6516e3",
                "666360c7e7d52018"], [105, 100, 104], 6),
        }
        for (n, epochs, seed, step), want in pinned.items():
            net, sets = mobile_rgg(n, epochs=epochs, step=step, seed=seed)
            assert all(
                type(u) is int and type(v) is int for es in sets for u, v in es
            )
            got = (
                net.num_edges,
                edge_digest(net.edge_list()),
                [edge_digest(es) for es in sets],
                [len(es) for es in sets],
                net.diameter,
            )
            assert got == want


class TestRandomGnp:
    def test_connected_and_reproducible(self):
        a = random_connected_gnp(40, seed=9)
        b = random_connected_gnp(40, seed=9)
        assert a.is_connected()
        assert a.edge_list() == b.edge_list()

    def test_p_one_is_clique(self):
        net = random_connected_gnp(8, p=1.0, seed=0)
        assert net.num_edges == 28

    def test_impossible_p_raises(self):
        with pytest.raises(TopologyError):
            random_connected_gnp(30, p=0.0001, seed=0, max_attempts=3)


class TestHypercube:
    def test_structure(self):
        from repro.topology import hypercube

        net = hypercube(4)
        assert net.n == 16
        assert net.max_degree == 4
        assert net.diameter == 4
        assert all(net.degree(v) == 4 for v in net.nodes())

    def test_dimension_one_is_edge(self):
        from repro.topology import hypercube

        assert hypercube(1).num_edges == 1

    def test_invalid(self):
        import pytest
        from repro.topology import hypercube
        from repro.radio.errors import TopologyError

        with pytest.raises(TopologyError):
            hypercube(0)


class TestTorus:
    def test_structure(self):
        from repro.topology import torus

        net = torus(4, 6)
        assert net.n == 24
        assert net.max_degree == 4
        assert net.diameter == 2 + 3
        assert all(net.degree(v) == 4 for v in net.nodes())

    def test_vertex_transitive_degrees(self):
        from repro.topology import torus, degree_histogram

        assert degree_histogram(torus(3, 3)) == {4: 9}

    def test_invalid(self):
        import pytest
        from repro.topology import torus
        from repro.radio.errors import TopologyError

        with pytest.raises(TopologyError):
            torus(2, 5)
