"""Tests for the topology registry, TopologySpec, and the fabric builders."""

import networkx as nx
import pytest

from repro.core.config import SimulationConfig
from repro.network.topology import (
    TOPOLOGIES,
    TopologyRegistry,
    TopologySpec,
    build_topology,
    build_topology_cached,
    clear_topology_cache,
    fat_tree_clos,
    leaf_spine,
    topology_names,
)

BW = 100e9


def _line3(n, bandwidth, latency=1e-6):
    graph = nx.Graph()
    for i in range(n):
        graph.add_node(f"gpu{i}")
    for i in range(n - 1):
        graph.add_edge(f"gpu{i}", f"gpu{i + 1}",
                       bandwidth=float(bandwidth), latency=float(latency))
    return graph


class TestRegistry:
    def test_all_historical_names_registered(self):
        for name in ("ring", "switch", "fat_tree", "dgx_hypercube",
                     "mesh2d", "wafer_mesh", "multi_node",
                     "ring_with_chords", "double_ring"):
            assert name in TOPOLOGIES
        assert "leaf_spine" in TOPOLOGIES
        assert "fat_tree_clos" in TOPOLOGIES

    def test_register_and_build(self):
        reg = TopologyRegistry()
        reg.register("line", _line3)
        graph = reg.build("line", 3, BW)
        assert graph.number_of_edges() == 2
        assert reg.names() == ["line"]

    def test_duplicate_name_rejected(self):
        reg = TopologyRegistry()
        reg.register("line", _line3)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("line", _line3)

    def test_unknown_name_raises_keyerror_naming_known(self):
        with pytest.raises(KeyError, match="leaf_spine"):
            TOPOLOGIES.get("torus9d")
        with pytest.raises(KeyError):
            build_topology("torus9d", 4, BW)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            build_topology("ring", 4, BW, spines=2)

    def test_param_type_coercion(self):
        ok = TOPOLOGIES.validate_params(
            "leaf_spine", {"spines": 2.0, "oversubscription": 2})
        assert ok == {"spines": 2, "oversubscription": 2.0}
        assert isinstance(ok["spines"], int)
        assert isinstance(ok["oversubscription"], float)

    def test_uncoercible_param_rejected(self):
        with pytest.raises(ValueError, match="int-like"):
            TOPOLOGIES.validate_params("leaf_spine", {"spines": "many"})

    def test_supports_param(self):
        assert TOPOLOGIES.supports_param("leaf_spine", "oversubscription")
        assert not TOPOLOGIES.supports_param("ring", "oversubscription")
        assert not TOPOLOGIES.supports_param("nope", "oversubscription")

    def test_multipath_flags(self):
        assert TOPOLOGIES.get("leaf_spine").multipath
        assert TOPOLOGIES.get("fat_tree_clos").multipath
        assert not TOPOLOGIES.get("ring").multipath
        assert not TOPOLOGIES.get("mesh2d").multipath

    def test_topology_names_matches_registry(self):
        assert topology_names() == TOPOLOGIES.names()


class TestTopologySpec:
    def test_round_trip(self):
        spec = TopologySpec("leaf_spine",
                            {"gpus_per_leaf": 4, "spines": 2,
                             "oversubscription": 2.0})
        again = TopologySpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.canonical() == spec.canonical()

    def test_canonical_ignores_param_order(self):
        a = TopologySpec("leaf_spine", {"spines": 2, "gpus_per_leaf": 4})
        b = TopologySpec("leaf_spine", {"gpus_per_leaf": 4, "spines": 2})
        assert a.canonical() == b.canonical()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown TopologySpec keys"):
            TopologySpec.from_dict({"name": "ring", "nodes": 4})
        with pytest.raises(ValueError, match="needs a 'name'"):
            TopologySpec.from_dict({"params": {}})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec("")

    def test_build_through_registry(self):
        spec = TopologySpec("leaf_spine", {"gpus_per_leaf": 2, "spines": 2})
        graph = spec.build(4, BW)
        assert {"leaf0", "leaf1", "spine0", "spine1"} <= set(graph.nodes)


class TestFabricBuilders:
    def test_leaf_spine_shape(self):
        g = leaf_spine(leaves=4, spines=2, gpus_per_leaf=4, bandwidth=BW)
        assert sum(1 for n in g if n.startswith("gpu")) == 16
        assert sum(1 for n in g if n.startswith("leaf")) == 4
        assert sum(1 for n in g if n.startswith("spine")) == 2
        # Every leaf uplinks to every spine; GPUs hang off their leaf.
        assert g.degree["spine0"] == 4
        assert g.degree["leaf0"] == 4 + 2

    def test_leaf_spine_oversubscription_sets_uplink_bw(self):
        g = leaf_spine(leaves=2, spines=2, gpus_per_leaf=8, bandwidth=BW,
                       oversubscription=4.0)
        # uplink = gpus_per_leaf * bw / (spines * oversub) = 8*BW/(2*4).
        assert g["leaf0"]["spine0"]["bandwidth"] == pytest.approx(BW)
        assert g["gpu0"]["leaf0"]["bandwidth"] == pytest.approx(BW)

    def test_leaf_spine_equal_cost_paths(self):
        g = leaf_spine(leaves=2, spines=3, gpus_per_leaf=2, bandwidth=BW)
        paths = list(nx.all_shortest_paths(g, "gpu0", "gpu2"))
        assert len(paths) == 3  # one per spine

    def test_leaf_spine_partial_fill(self):
        g = leaf_spine(leaves=2, spines=2, gpus_per_leaf=4, bandwidth=BW, n=5)
        assert sum(1 for n in g if n.startswith("gpu")) == 5
        assert g.has_edge("gpu4", "leaf1")

    def test_leaf_spine_overflow_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            leaf_spine(leaves=2, spines=2, gpus_per_leaf=4, bandwidth=BW, n=9)

    def test_fat_tree_clos_shape(self):
        k = 4
        g = fat_tree_clos(k, BW)
        assert sum(1 for n in g if n.startswith("gpu")) == k ** 3 // 4
        assert sum(1 for n in g if n.startswith("core")) == (k // 2) ** 2
        assert sum(1 for n in g if n.startswith("edge")) == k * k // 2
        assert sum(1 for n in g if n.startswith("agg")) == k * k // 2

    def test_fat_tree_clos_interpod_path_count(self):
        k = 4
        g = fat_tree_clos(k, BW)
        # gpu0 (pod 0) to the last GPU (pod k-1): (k/2)^2 equal-cost paths.
        paths = list(nx.all_shortest_paths(g, "gpu0", f"gpu{k**3 // 4 - 1}"))
        assert len(paths) == (k // 2) ** 2

    def test_fat_tree_clos_odd_k_rejected(self):
        with pytest.raises(ValueError, match="even k"):
            fat_tree_clos(3, BW)

    def test_auto_sizing_through_registry(self):
        # With no explicit k, the smallest fitting even k is picked.
        g = build_topology("fat_tree_clos", 10, BW)
        assert sum(1 for n in g if n.startswith("gpu")) == 10
        g = build_topology("leaf_spine", 16, BW, gpus_per_leaf=4)
        assert sum(1 for n in g if n.startswith("leaf")) == 4


class TestBuildTopologyCached:
    def test_params_are_part_of_the_key(self):
        clear_topology_cache()
        a = build_topology_cached("leaf_spine", 8, BW, gpus_per_leaf=4)
        b = build_topology_cached("leaf_spine", 8, BW, gpus_per_leaf=2)
        assert a is not b
        assert sum(1 for n in a if n.startswith("leaf")) == 2
        assert sum(1 for n in b if n.startswith("leaf")) == 4

    def test_coerced_spellings_share_one_entry(self):
        clear_topology_cache()
        a = build_topology_cached("leaf_spine", 8, BW, gpus_per_leaf=4,
                                  oversubscription=2)
        b = build_topology_cached("leaf_spine", 8, BW, gpus_per_leaf=4,
                                  oversubscription=2.0)
        assert a is b


class TestConfigIntegration:
    def test_topology_accepts_spec_dict_and_name(self):
        spec = TopologySpec("leaf_spine", {"gpus_per_leaf": 4})
        by_spec = SimulationConfig(parallelism="ddp", num_gpus=8,
                                   topology=spec)
        by_dict = SimulationConfig(parallelism="ddp", num_gpus=8,
                                   topology=spec.to_dict())
        assert by_spec.topology == by_dict.topology == spec
        by_name = SimulationConfig(parallelism="ddp", num_gpus=8,
                                   topology="ring")
        assert by_name.topology == "ring"

    def test_paramless_spec_collapses_to_name(self):
        # Keeps cache keys identical to the historical plain-name form.
        plain = SimulationConfig(parallelism="ddp", num_gpus=4,
                                 topology="ring")
        spec = SimulationConfig(parallelism="ddp", num_gpus=4,
                                topology=TopologySpec("ring"))
        assert spec.topology == "ring"
        assert spec.cache_key() == plain.cache_key()

    def test_spec_params_change_cache_key(self):
        a = SimulationConfig(
            parallelism="ddp", num_gpus=8,
            topology=TopologySpec("leaf_spine", {"spines": 2}))
        b = SimulationConfig(
            parallelism="ddp", num_gpus=8,
            topology=TopologySpec("leaf_spine", {"spines": 4}))
        assert a.cache_key() != b.cache_key()

    def test_routing_fields_change_cache_key(self):
        base = SimulationConfig(parallelism="ddp", num_gpus=8,
                                topology="leaf_spine")
        routed = SimulationConfig(parallelism="ddp", num_gpus=8,
                                  topology="leaf_spine", routing="ecmp")
        seeded = SimulationConfig(parallelism="ddp", num_gpus=8,
                                  topology="leaf_spine", routing="ecmp",
                                  routing_seed=7)
        oversub = SimulationConfig(parallelism="ddp", num_gpus=8,
                                   topology="leaf_spine",
                                   oversubscription=4.0)
        keys = {base.cache_key(), routed.cache_key(), seeded.cache_key(),
                oversub.cache_key()}
        assert len(keys) == 4

    def test_config_round_trip_with_spec_and_routing(self):
        cfg = SimulationConfig(
            parallelism="ddp", num_gpus=8,
            topology=TopologySpec("leaf_spine", {"gpus_per_leaf": 4}),
            routing="adaptive", routing_seed=3, oversubscription=2.0)
        again = SimulationConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.cache_key() == cfg.cache_key()

    def test_schema_v1_dict_still_loads(self):
        data = SimulationConfig(parallelism="ddp", num_gpus=4).to_dict()
        data["schema_version"] = 1
        for key in ("routing", "routing_seed", "oversubscription"):
            data.pop(key, None)
        cfg = SimulationConfig.from_dict(data)
        assert cfg.routing == "shortest"
        assert cfg.routing_seed == 0
        assert cfg.oversubscription is None

    def test_invalid_routing_fields_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            SimulationConfig(parallelism="ddp", num_gpus=4, routing=7)
        with pytest.raises((ValueError, TypeError)):
            SimulationConfig(parallelism="ddp", num_gpus=4,
                             routing_seed="lucky")
        with pytest.raises(ValueError):
            SimulationConfig(parallelism="ddp", num_gpus=4,
                             oversubscription=-1.0)
