"""Tests for tree and hierarchical collectives and the scheme dispatcher."""

import pytest

from repro.collectives.dispatch import all_reduce
from repro.collectives.hierarchical import hierarchical_all_reduce
from repro.collectives.ring import ring_all_reduce
from repro.collectives.tree import tree_all_reduce, tree_broadcast, tree_reduce
from repro.core.plan import PlanBuilder
from repro.core.taskgraph import TRANSFER, TaskGraphSimulator
from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.topology import gpu_names, multi_node, node_groups, ring, switch


def _sim(topology):
    engine = Engine()
    return TaskGraphSimulator(engine, FlowNetwork(engine, topology))


def _transfer_rows(builder):
    kinds = builder.columns["kind"]
    return [t for t in range(len(kinds)) if kinds[t] == TRANSFER]


class TestTreeReduce:
    def test_transfer_count_is_n_minus_1(self):
        builder = PlanBuilder()
        tree_reduce(builder, gpu_names(8), 80.0)
        assert len(_transfer_rows(builder)) == 7

    def test_log_depth_timing(self):
        """On a contention-free crossbar, a binomial reduce of n=8 takes
        log2(8)=3 sequential levels of full-buffer transfers."""
        sim = _sim(switch(8, 100.0, latency=0.0))
        tree_reduce(sim, gpu_names(8), 100.0)
        assert sim.run() == pytest.approx(3 * 1.0)

    def test_root_receives_everything(self):
        builder = PlanBuilder()
        tasks = tree_reduce(builder, gpu_names(4), 10.0, root=2)
        assert builder.columns["dst"][tasks[-1]] == "gpu2"

    def test_single_gpu_noop(self):
        sim = _sim(ring(2, 100.0))
        tree_reduce(sim, ["gpu0"], 100.0)
        assert sim.run() == 0.0


class TestTreeBroadcast:
    def test_log_depth_timing(self):
        sim = _sim(switch(8, 100.0, latency=0.0))
        tree_broadcast(sim, gpu_names(8), 100.0)
        assert sim.run() == pytest.approx(3 * 1.0)

    def test_everyone_receives(self):
        builder = PlanBuilder()
        tree_broadcast(builder, gpu_names(8), 10.0)
        destinations = {builder.columns["dst"][t]
                        for t in _transfer_rows(builder)}
        assert destinations == set(gpu_names(8)) - {"gpu0"}


class TestTreeAllReduce:
    def test_latency_vs_ring_tradeoff(self):
        """Small buffers: the tree's 2*log2(n) hops beat the ring's
        2(n-1) steps.  Large buffers: the ring's 2(n-1)/n bytes per link
        beat the tree's full-buffer hops."""
        n = 16
        small, large = 10.0, 1e6
        for nbytes, tree_wins in ((small, True), (large, False)):
            sim_tree = _sim(switch(n, 1000.0, latency=1.0))
            tree_all_reduce(sim_tree, gpu_names(n), nbytes)
            t_tree = sim_tree.run()
            sim_ring = _sim(switch(n, 1000.0, latency=1.0))
            ring_all_reduce(sim_ring, gpu_names(n), nbytes)
            t_ring = sim_ring.run()
            assert (t_tree < t_ring) == tree_wins

    def test_completion_means_all_received(self):
        sim = _sim(switch(8, 100.0, latency=0.0))
        tree_all_reduce(sim, gpu_names(8), 10.0)
        sim.run()
        assert None not in sim.store.end


class TestHierarchical:
    def _cluster(self, nodes=2, per_node=4, inter=10.0):
        topo = multi_node(nodes, per_node, intra_bandwidth=1000.0,
                          inter_bandwidth=inter, intra_latency=0.0,
                          inter_latency=0.0)
        return _sim(topo), node_groups(nodes, per_node)

    def test_beats_flat_ring_on_slow_fabric(self):
        nbytes = 800.0
        sim_h, groups = self._cluster()
        hierarchical_all_reduce(sim_h, groups, nbytes)
        t_hier = sim_h.run()
        sim_r, groups = self._cluster()
        ring_all_reduce(sim_r, [g for grp in groups for g in grp], nbytes)
        t_flat = sim_r.run()
        assert t_hier < t_flat

    def test_single_node_falls_back_to_ring(self):
        sim, groups = self._cluster(nodes=1)
        tasks = hierarchical_all_reduce(sim, groups, 100.0)
        assert sim.run() > 0
        assert tasks

    def test_one_gpu_per_node_falls_back_to_flat(self):
        sim, groups = self._cluster(nodes=4, per_node=1)
        hierarchical_all_reduce(sim, groups, 100.0)
        assert sim.run() > 0

    def test_mismatched_nodes_rejected(self):
        sim, _ = self._cluster()
        with pytest.raises(ValueError):
            hierarchical_all_reduce(sim, [["gpu0", "gpu1"], ["gpu2"]], 1.0)

    def test_empty_rejected(self):
        sim, _ = self._cluster()
        with pytest.raises(ValueError):
            hierarchical_all_reduce(sim, [], 1.0)


class TestDispatch:
    def test_ring_default(self):
        builder = PlanBuilder()
        all_reduce(builder, gpu_names(4), 100.0)
        assert len(_transfer_rows(builder)) == 2 * 3 * 4

    def test_unknown_scheme_rejected(self):
        sim = _sim(ring(2, 100.0))
        with pytest.raises(ValueError):
            all_reduce(sim, gpu_names(2), 1.0, scheme="butterfly")

    def test_hierarchical_needs_groups(self):
        sim = _sim(ring(4, 100.0))
        with pytest.raises(ValueError):
            all_reduce(sim, gpu_names(4), 1.0, scheme="hierarchical")

    def test_groups_must_partition(self):
        sim = _sim(ring(4, 100.0))
        with pytest.raises(ValueError):
            all_reduce(sim, gpu_names(4), 1.0, scheme="hierarchical",
                       node_groups=[["gpu0", "gpu1"], ["gpu2", "gpu9"]])


class TestMultiNodeTopology:
    def test_structure(self):
        topo = multi_node(3, 4, 100.0, 10.0)
        assert topo.number_of_nodes() == 12 + 3
        assert topo.has_edge("nsw0", "nsw1")
        assert topo.has_edge("nsw2", "nsw0")

    def test_two_nodes_single_interlink(self):
        topo = multi_node(2, 2, 100.0, 10.0)
        inter = [e for e in topo.edges if e[0].startswith("nsw")
                 and e[1].startswith("nsw")]
        assert len(inter) == 1

    def test_node_groups_layout(self):
        groups = node_groups(2, 3)
        assert groups == [["gpu0", "gpu1", "gpu2"], ["gpu3", "gpu4", "gpu5"]]

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            multi_node(0, 4, 1.0, 1.0)
