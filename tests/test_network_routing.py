"""Tests for the routing-strategy layer and multi-path FlowNetwork."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.engine.engine import Engine
from repro.faults.spec import FaultSpec, LinkFault
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.routing import (
    AdaptiveRouting,
    EcmpRouting,
    FlowletRouting,
    RoutingStrategy,
    ShortestPathRouting,
    get_routing_strategy,
    register_routing_strategy,
    routing_names,
    stable_hash,
)
from repro.network.topology import TopologySpec, leaf_spine, ring, switch
from repro.trace.tracer import Tracer
from repro.workloads import get_model

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 64)


def _fabric(bandwidth=100.0, latency=0.0, spines=2):
    """A tiny 2-leaf fabric: gpu0/gpu1 on leaf0, gpu2/gpu3 on leaf1."""
    return leaf_spine(leaves=2, spines=spines, gpus_per_leaf=2,
                      bandwidth=bandwidth, latency=latency)


def _net(topology, routing=None, seed=0):
    engine = Engine()
    return engine, FlowNetwork(engine, topology, routing=routing,
                               routing_seed=seed)


class TestStableHash:
    def test_deterministic_and_seeded(self):
        assert stable_hash("gpu0", "gpu2") == stable_hash("gpu0", "gpu2")
        assert stable_hash("gpu0", "gpu2") != stable_hash("gpu2", "gpu0")
        assert stable_hash("gpu0", "gpu2", seed=1) != \
            stable_hash("gpu0", "gpu2", seed=2)

    def test_survives_pythonhashseed(self):
        """CRC-based hashing must not depend on process hash randomization."""
        code = ("from repro.network.routing import stable_hash; "
                "print(stable_hash('gpu0', 'gpu2', seed=3))")
        outs = set()
        for hashseed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hashseed},
            )
            outs.add(proc.stdout.strip())
        assert len(outs) == 1
        assert outs == {str(stable_hash("gpu0", "gpu2", seed=3))}


class TestStrategyRegistry:
    def test_builtin_names(self):
        assert routing_names() == ["shortest", "ecmp", "flowlet", "adaptive"]

    def test_get_by_name(self):
        strat = get_routing_strategy("ecmp", seed=5)
        assert isinstance(strat, EcmpRouting)
        assert strat.seed == 5
        assert strat.cache_token() == ("ecmp", 5)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="ecmp"):
            get_routing_strategy("spray")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_routing_strategy(EcmpRouting)

    def test_base_name_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            register_routing_strategy(RoutingStrategy)

    def test_override_and_restore(self):
        class LoudEcmp(EcmpRouting):
            pass

        register_routing_strategy(LoudEcmp, override=True)
        try:
            assert isinstance(get_routing_strategy("ecmp"), LoudEcmp)
        finally:
            register_routing_strategy(EcmpRouting, override=True)
        assert type(get_routing_strategy("ecmp")) is EcmpRouting


class TestCandidateRoutes:
    def test_single_path_pair_has_one_candidate(self):
        _, net = _net(ring(4, bandwidth=100.0))
        assert len(net.candidate_routes("gpu0", "gpu1")) == 1

    def test_cross_leaf_pair_sees_one_path_per_spine(self):
        _, net = _net(_fabric(spines=3))
        candidates = net.candidate_routes("gpu0", "gpu2")
        assert len(candidates) == 3
        spines = {route[1][1] for route in candidates}
        assert spines == {"spine0", "spine1", "spine2"}

    def test_first_candidate_is_the_legacy_route(self):
        _, net = _net(_fabric(spines=3))
        assert net.candidate_routes("gpu0", "gpu2")[0] == \
            net.route("gpu0", "gpu2")

    def test_same_leaf_pair_is_single_path(self):
        _, net = _net(_fabric(spines=3))
        assert len(net.candidate_routes("gpu0", "gpu1")) == 1


class TestStrategyChoices:
    def test_ecmp_pins_a_pair_for_the_run(self):
        engine, net = _net(_fabric(), routing="ecmp", seed=1)
        done = []
        for _ in range(4):
            net.send("gpu0", "gpu2", 100.0, done.append)
        engine.run()
        choices = net.network_summary()["path_choices"]["gpu0->gpu2"]
        assert list(choices.values()) == [4]  # one index took every flow

    def test_ecmp_identical_across_instances(self):
        picks = []
        for _ in range(2):
            engine, net = _net(_fabric(spines=4), routing="ecmp", seed=9)
            net.send("gpu0", "gpu2", 100.0, lambda t: None)
            engine.run()
            picks.append(net.network_summary()["path_choices"])
        assert picks[0] == picks[1]

    def test_flowlet_rehashes_after_idle_gap(self):
        strat = FlowletRouting(seed=0, idle_gap=1.0)
        engine, net = _net(_fabric(spines=16), routing=strat)
        net.send("gpu0", "gpu2", 100.0, lambda t: None)
        engine.run()
        first = dict(net._path_choices[("gpu0", "gpu2")])
        engine.call_after(10.0, lambda _ev: net.send(
            "gpu0", "gpu2", 100.0, lambda t: None))
        engine.run()
        both = net._path_choices[("gpu0", "gpu2")]
        assert sum(both.values()) == 2
        # Salt bumped; with 16 spines the rehash lands elsewhere.
        assert both != first

    def test_adaptive_spreads_a_same_instant_wave(self):
        engine, net = _net(_fabric(spines=2), routing="adaptive")
        for _ in range(2):
            net.send("gpu0", "gpu2", 1000.0, lambda t: None)
        engine.run()
        choices = net.network_summary()["path_choices"]["gpu0->gpu2"]
        # Route commitments make the second flow see the first: one flow
        # per spine instead of both piling onto candidate 0.
        assert choices == {"0": 1, "1": 1}

    def test_adaptive_avoids_degraded_uplink(self):
        engine, net = _net(_fabric(spines=2), routing="adaptive")
        net.set_link_capacity("leaf0", "spine0", 1.0)
        net.send("gpu0", "gpu2", 1000.0, lambda t: None)
        engine.run()
        choices = net.network_summary()["path_choices"]["gpu0->gpu2"]
        ((index, count),) = choices.items()
        route = net.candidate_routes("gpu0", "gpu2")[int(index)]
        assert ("leaf0", "spine0") not in route

    def test_adaptive_tie_break_is_bottleneck_total_index(self):
        engine, net = _net(_fabric(spines=4), routing="adaptive")
        net.send("gpu0", "gpu2", 1000.0, lambda t: None)
        engine.run()
        # An idle fabric ties on every score: the first candidate wins.
        assert net.network_summary()["path_choices"]["gpu0->gpu2"] == {
            "0": 1}
        engine, net = _net(_fabric(spines=2), routing="adaptive")
        # The shared downlink is every candidate's bottleneck; a slower
        # first uplink only raises candidate 0's total.
        net.set_link_capacity("gpu0", "leaf0", 1.0)
        net.set_link_capacity("leaf0", "spine0", 50.0)
        net.send("gpu0", "gpu2", 1000.0, lambda t: None)
        engine.run()
        assert net.network_summary()["path_choices"]["gpu0->gpu2"] == {
            "1": 1}

    def test_route_loads_count_committed_and_active_flows(self):
        engine, net = _net(_fabric(latency=1.0), routing="adaptive")
        net.send("gpu0", "gpu2", 100.0, lambda t: None)
        # In the send -> activate latency window, then active.
        for until in (0.5, 3.5):
            engine.run(until=until)
            chosen, other = net.route_loads("gpu0", "gpu2")
            assert [flows for flows, _ in chosen] == [1] * 4
            assert [flows for flows, _ in other] == [1, 0, 0, 1]
        engine.run()
        assert net.route_loads("gpu0", "gpu2")[0] == [(0, 100.0)] * 4
        net.set_link_capacity("leaf0", "spine0", 25.0)
        assert net.route_loads("gpu0", "gpu2")[0][1] == (0, 25.0)

    def test_out_of_range_choice_rejected(self):
        class Wild(RoutingStrategy):
            name = "wild-test"
            dynamic = True

            def choose(self, src, dst, candidates, network):
                return 99

        _, net = _net(_fabric(), routing=Wild())
        with pytest.raises(ValueError, match="out of range"):
            net.send("gpu0", "gpu2", 100.0, lambda t: None)


class TestNetworkSummary:
    def test_summary_counts_and_utilization(self):
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        net.send("gpu0", "gpu1", 200.0, lambda t: None)
        engine.run()
        summary = net.network_summary(total_time=4.0)
        link = summary["links"]["gpu0->gpu1"]
        assert link["bytes"] == 200.0
        assert link["flows"] == 1
        assert link["peak_flows"] == 1
        assert link["utilization"] == pytest.approx(0.5)
        assert summary["fct"]["count"] == 1
        assert summary["fct"]["mean"] == pytest.approx(2.0)
        assert summary["most_loaded_link"] == "gpu0->gpu1"
        assert summary["routing"] == "shortest"

    def test_summary_is_json_safe(self):
        engine, net = _net(_fabric(), routing="ecmp", seed=2)
        net.send("gpu0", "gpu3", 50.0, lambda t: None)
        engine.run()
        json.dumps(net.network_summary(total_time=1.0))


class TestSinglePathBitIdentity:
    """On single-path topologies every strategy must reproduce the
    legacy network model bit for bit (the API-redesign guarantee)."""

    @pytest.mark.parametrize("topology", ["ring", "switch", "mesh2d"])
    def test_all_strategies_match_shortest(self, trace, topology):
        results = {}
        for routing in routing_names():
            res = TrioSim(trace, SimulationConfig(
                parallelism="ddp", num_gpus=4, topology=topology,
                link_bandwidth=20e9, routing=routing, routing_seed=11,
            )).run()
            data = res.to_dict()
            data.pop("wall_time", None)  # host wall-clock, not simulated
            data.pop("profile", None)
            data["network"].pop("routing", None)
            data["network"].pop("routing_seed", None)
            results[routing] = json.dumps(data, sort_keys=True)
        assert len(set(results.values())) == 1

    def test_direct_fabric_strategies_match_on_single_path_pairs(self):
        """Even on a fabric, same-leaf traffic is strategy-invariant."""
        times = set()
        for routing in routing_names():
            engine, net = _net(_fabric(bandwidth=100.0), routing=routing)
            net.send("gpu0", "gpu1", 500.0, lambda t: None)
            engine.run()
            times.add(engine.now)
        assert len(times) == 1


class TestSimulatorIntegration:
    def _config(self, routing, factor=None, **kw):
        faults = None
        if factor is not None:
            faults = FaultSpec(link_faults=(
                LinkFault("leaf0-spine0", 0.0, 100.0, factor),))
        return SimulationConfig(
            parallelism="ddp", num_gpus=8,
            topology=TopologySpec("leaf_spine",
                                  {"gpus_per_leaf": 2, "spines": 2}),
            oversubscription=2.0, link_bandwidth=10e9,
            routing=routing, routing_seed=1, faults=faults, **kw)

    @pytest.mark.parametrize("routing", ["ecmp", "flowlet", "adaptive"])
    def test_run_records_network_metrics(self, trace, routing):
        res = TrioSim(trace, self._config(routing)).run()
        net = res.network
        assert net["routing"] == routing
        assert net["multipath_pairs"] > 0
        assert net["path_choices"]
        assert net["links"]
        assert 0.0 < max(
            link["utilization"] for link in net["links"].values()) <= 1.0

    def test_rerun_is_bit_identical(self, trace):
        dumps = []
        for _ in range(2):
            res = TrioSim(trace, self._config("ecmp")).run()
            data = res.to_dict()
            data.pop("wall_time", None)
            data.pop("profile", None)
            dumps.append(json.dumps(data, sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_adaptive_beats_ecmp_under_uplink_fault(self, trace):
        ecmp = TrioSim(trace, self._config("ecmp", factor=0.05)).run()
        adaptive = TrioSim(trace, self._config("adaptive",
                                               factor=0.05)).run()
        assert adaptive.total_time < ecmp.total_time
        # Adaptive steered its flows off the degraded uplink (possibly
        # entirely, in which case the link has no stats entry at all).
        fault_flows = adaptive.network["links"].get(
            "leaf0->spine0", {}).get("flows", 0)
        healthy_flows = adaptive.network["links"]["leaf0->spine1"]["flows"]
        assert fault_flows < healthy_flows

    def test_routing_inert_on_single_path_named_topology(self, trace):
        res = TrioSim(trace, SimulationConfig(
            parallelism="ddp", num_gpus=4, topology="ring",
            link_bandwidth=20e9, routing="ecmp")).run()
        assert res.network["multipath_pairs"] == 0
        assert res.network["path_choices"] == {}

    def test_result_round_trip_keeps_network(self, trace):
        from repro.core.results import SimulationResult

        res = TrioSim(trace, self._config("adaptive")).run()
        again = SimulationResult.from_dict(
            json.loads(json.dumps(res.to_dict())))
        assert again.network == res.network

    def test_result_schema_v2_loads_without_network(self, trace):
        from repro.core.results import SimulationResult

        data = TrioSim(trace, self._config("ecmp")).run().to_dict()
        data["schema_version"] = 2
        data.pop("network")
        assert SimulationResult.from_dict(data).network == {}
