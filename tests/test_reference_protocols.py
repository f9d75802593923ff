"""Tests for the reference Node-based protocols and their cross-validation
against the centrally orchestrated stage drivers."""

import numpy as np
import pytest

from repro.primitives.bfs import build_distributed_bfs
from repro.primitives.reference import reference_bfs, reference_broadcast
from repro.topology import (
    balanced_tree,
    grid,
    hypercube,
    line,
    star,
    torus,
    validate_bfs_tree,
)


class TestReferenceBroadcast:
    @pytest.mark.parametrize(
        "net", [line(10), grid(3, 4), star(9), hypercube(3)],
        ids=["line", "grid", "star", "hypercube"],
    )
    def test_completes(self, net):
        outcome = reference_broadcast(net, [0], seed=5)
        assert outcome.completed

    def test_multi_source(self):
        net = line(16)
        outcome = reference_broadcast(net, [0, 15], seed=6)
        assert outcome.completed

    def test_all_nodes_informed_at_end(self):
        net = torus(3, 4)
        outcome = reference_broadcast(net, [0], seed=7)
        assert all(node.informed for node in outcome.nodes)
        # informed_at_round is set for every late joiner
        assert all(
            node.informed_at_round >= 0 for node in outcome.nodes
        )


class TestReferenceBfs:
    @pytest.mark.parametrize(
        "net,root",
        [(line(8), 0), (grid(3, 4), 5), (balanced_tree(2, 3), 0),
         (hypercube(4), 3)],
        ids=["line", "grid", "tree", "hypercube"],
    )
    def test_valid_tree(self, net, root):
        parent, distance, _rounds = reference_bfs(net, root, seed=11)
        assert validate_bfs_tree(net, root, parent, distance) == []

    def test_round_budget_matches_engine(self):
        net = grid(3, 3)
        _, _, ref_rounds = reference_bfs(net, 0, seed=1, epochs_per_phase=4)
        engine = build_distributed_bfs(
            net, 0, np.random.default_rng(1), epochs_per_phase=4
        )
        assert ref_rounds == engine.rounds


class TestCrossValidation:
    def test_bfs_success_rates_comparable(self):
        """Engine and reference implement the same protocol: over many
        seeds both construct valid trees at comparable rates."""
        net = torus(4, 4)
        trials = 12
        ref_ok = 0
        eng_ok = 0
        for seed in range(trials):
            parent, dist, _ = reference_bfs(net, 0, seed=seed)
            ref_ok += validate_bfs_tree(net, 0, parent, dist) == []
            r = build_distributed_bfs(net, 0, np.random.default_rng(seed))
            eng_ok += (
                r.complete
                and validate_bfs_tree(net, 0, r.parent, r.distance) == []
            )
        assert ref_ok >= trials - 1
        assert eng_ok >= trials - 1
