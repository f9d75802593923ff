"""Unit tests for AlgorithmParameters budget formulas and presets."""

import math

import pytest

from repro.core.config import AlgorithmParameters, log2n
from repro.topology import grid, line, star


class TestLog2n:
    def test_clamped_below(self):
        assert log2n(0) == 1.0
        assert log2n(1) == 1.0
        assert log2n(2) == 1.0

    def test_values(self):
        assert log2n(8) == 3.0
        assert abs(log2n(100) - math.log2(100)) < 1e-12


class TestDerivedBudgets:
    def test_c_log_n(self):
        p = AlgorithmParameters(c_log=2.0)
        assert p.c_log_n(16) == 8
        assert p.c_log_n(1) == 2  # clamped log

    def test_bgi_epochs_formula(self):
        net = line(10)  # D=9
        p = AlgorithmParameters(bgi_epochs_factor=3.0)
        expected = math.ceil(3.0 * (9 + math.log2(10)))
        assert p.bgi_epochs(net) == expected

    def test_bfs_epochs_formula(self):
        net = grid(4, 4)
        p = AlgorithmParameters(bfs_epochs_factor=2.5)
        assert p.bfs_epochs(net) == math.ceil(2.5 * 4)

    def test_forward_epochs_formula(self):
        p = AlgorithmParameters(forward_surplus=10.0, forward_epochs_factor=3.0)
        assert p.forward_epochs(6) == math.ceil(3.0 * 16)

    def test_group_width(self):
        p = AlgorithmParameters()
        assert p.group_width(16) == 4
        assert p.group_width(17) == 5
        assert p.group_width(2) == 1

    def test_initial_collection_estimate(self):
        net = line(10)
        p = AlgorithmParameters(collection_estimate_factor=1.0)
        ln = math.log2(10)
        assert p.initial_collection_estimate(net) == math.ceil((9 + ln) * ln)

    def test_initial_estimate_with_depth_bound(self):
        net = line(10)
        p = AlgorithmParameters()
        assert p.initial_collection_estimate(net, depth_bound=20) > \
            p.initial_collection_estimate(net, depth_bound=9)

    def test_max_k_estimate(self):
        p = AlgorithmParameters(k_bound_exponent=3.0)
        assert p.max_k_estimate(10) == 1000
        assert p.max_k_estimate(1) >= 16  # floor

    def test_budgets_positive_for_degenerate_networks(self):
        from repro.radio.network import RadioNetwork

        single = RadioNetwork([], n=1)
        p = AlgorithmParameters()
        assert p.bgi_epochs(single) >= 1
        assert p.bfs_epochs(single) >= 1
        assert p.forward_epochs(1) >= 1
        assert p.group_width(1) >= 1


class TestPresetsAndOverrides:
    def test_frozen(self):
        p = AlgorithmParameters()
        with pytest.raises(Exception):
            p.c_log = 5.0

    def test_with_overrides_returns_new_instance(self):
        p = AlgorithmParameters()
        q = p.with_overrides(group_spacing=5)
        assert q.group_spacing == 5
        assert p.group_spacing == 3
        assert q is not p

    def test_presets_differ(self):
        fast = AlgorithmParameters.fast()
        default = AlgorithmParameters()
        paper = AlgorithmParameters.paper()
        net = star(20)
        assert fast.bgi_epochs(net) < default.bgi_epochs(net) < \
            paper.bgi_epochs(net)
        assert fast.forward_epochs(5) < paper.forward_epochs(5)

    def test_paper_preset_defaults_stay_paper_faithful(self):
        paper = AlgorithmParameters.paper()
        assert paper.group_spacing == 3
        assert paper.coding_enabled
        assert not paper.opportunistic_decoding
        assert paper.mspg_enabled
        assert paper.ospg_window_factor == 6
        assert paper.root_plain_repetitions == 1


class TestEngineField:
    """``engine`` selects nothing; it survives so that
    ``engine="columnar"`` call sites still construct."""

    def test_columnar_and_none_construct(self):
        assert AlgorithmParameters(engine="columnar").engine == "columnar"
        assert AlgorithmParameters().engine is None

    @pytest.mark.parametrize("name", ["reference", "fast", "warp"])
    def test_other_names_raise(self, name):
        with pytest.raises(ValueError, match="unknown engine"):
            AlgorithmParameters(engine=name)


class TestNodeIdsInOrchestrator:
    def test_leader_is_max_id_holder(self):
        from repro import MultipleMessageBroadcast
        from repro.coding.packets import make_packets

        net = grid(3, 3)
        # node 2 has the largest ID among packet holders {2, 7}
        node_ids = [10, 20, 900, 30, 40, 50, 60, 70, 80]
        packets = make_packets([2, 7], size_bits=8, seed=1)
        result = MultipleMessageBroadcast(
            net, seed=3, node_ids=node_ids
        ).run(packets)
        assert result.success
        assert result.leader == 2
