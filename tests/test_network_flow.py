"""Tests for the flow-based network model (max-min sharing, rescheduling)."""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork, RoutingError
from repro.network.topology import mesh2d, ring, switch


def _net(topology):
    engine = Engine()
    return engine, FlowNetwork(engine, topology)


def _send(engine, net, src, dst, nbytes, done, key):
    net.send(src, dst, nbytes, lambda t: done.setdefault(key, engine.now))


class TestBasicTransfers:
    def test_single_flow_wire_time(self):
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 200.0, done, "a")
        engine.run()
        assert done["a"] == pytest.approx(2.0)

    def test_latency_added_once(self):
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.5))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 100.0, done, "a")
        engine.run()
        assert done["a"] == pytest.approx(1.5)

    def test_multi_hop_latency_sums(self):
        engine, net = _net(switch(4, bandwidth=100.0, latency=0.5))
        done = {}
        _send(engine, net, "gpu0", "gpu3", 100.0, done, "a")
        engine.run()
        # two hops of latency 0.25 each (switch builder halves it per hop)
        assert done["a"] == pytest.approx(0.5 + 1.0)

    def test_local_transfer_instant(self):
        engine, net = _net(ring(2, bandwidth=1.0, latency=5.0))
        done = {}
        _send(engine, net, "gpu0", "gpu0", 1e9, done, "a")
        engine.run()
        assert done["a"] == 0.0

    def test_zero_bytes_instant(self):
        engine, net = _net(ring(2, bandwidth=1.0, latency=5.0))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 0.0, done, "a")
        engine.run()
        assert done["a"] == 0.0

    def test_unknown_endpoint_rejected(self):
        engine, net = _net(ring(2, bandwidth=1.0))
        with pytest.raises(RoutingError):
            net.send("gpu0", "gpu9", 1.0, lambda t: None)

    def test_unknown_endpoint_rejected_for_local_move(self):
        engine, net = _net(ring(2, bandwidth=1.0))
        with pytest.raises(RoutingError):
            net.send("gpu9", "gpu9", 1.0, lambda t: None)

    def test_negative_bytes_rejected(self):
        engine, net = _net(ring(2, bandwidth=1.0))
        with pytest.raises(ValueError):
            net.send("gpu0", "gpu1", -1.0, lambda t: None)


class TestBandwidthSharing:
    def test_two_flows_share_equally(self):
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 100.0, done, "a")
        _send(engine, net, "gpu0", "gpu1", 100.0, done, "b")
        engine.run()
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)

    def test_full_duplex_no_contention(self):
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 100.0, done, "a")
        _send(engine, net, "gpu1", "gpu0", 100.0, done, "b")
        engine.run()
        assert done["a"] == pytest.approx(1.0)
        assert done["b"] == pytest.approx(1.0)

    def test_staggered_flow_reschedules_in_flight(self):
        """Paper Figure 5, case B: a new flow halves the old flow's rate
        and its delivery event is rescheduled."""
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 100.0, done, "a")
        engine.call_after(0.5, lambda e: _send(engine, net, "gpu0", "gpu1",
                                               100.0, done, "b"))
        engine.run()
        # a: 50B alone, 50B shared -> 0.5 + 1.0 = 1.5
        assert done["a"] == pytest.approx(1.5)
        # b: 50B shared (1.0s), then 50B alone (0.5s) -> ends at 2.0
        assert done["b"] == pytest.approx(2.0)

    def test_finish_frees_bandwidth_early(self):
        """Figure 5 step 7: when one flow delivers, survivors speed up."""
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 50.0, done, "small")
        _send(engine, net, "gpu0", "gpu1", 150.0, done, "big")
        engine.run()
        assert done["small"] == pytest.approx(1.0)
        # big: 50B at 50B/s (1s), then 100B at 100B/s (1s).
        assert done["big"] == pytest.approx(2.0)

    def test_max_min_unequal_paths(self):
        """A one-hop flow and a two-hop flow sharing one link both get a
        fair share of that link."""
        engine, net = _net(mesh2d(1, 3, bandwidth=100.0, latency=0.0))
        done = {}
        _send(engine, net, "gpu0", "gpu2", 100.0, done, "long")   # 2 hops
        _send(engine, net, "gpu1", "gpu2", 100.0, done, "short")  # shared hop
        engine.run()
        assert done["long"] == pytest.approx(2.0)
        assert done["short"] == pytest.approx(2.0)

    def test_disjoint_flows_independent(self):
        engine, net = _net(mesh2d(1, 4, bandwidth=100.0, latency=0.0))
        done = {}
        _send(engine, net, "gpu0", "gpu1", 100.0, done, "a")
        _send(engine, net, "gpu2", "gpu3", 100.0, done, "b")
        engine.run()
        assert done["a"] == pytest.approx(1.0)
        assert done["b"] == pytest.approx(1.0)


class TestAccounting:
    def test_counters(self):
        engine, net = _net(ring(2, bandwidth=100.0))
        net.send("gpu0", "gpu1", 30.0, lambda t: None)
        net.send("gpu0", "gpu1", 70.0, lambda t: None)
        engine.run()
        assert net.delivered_count == 2
        assert net.total_bytes_delivered == 100.0
        assert net.active_flows == 0

    def test_route_cached_and_correct(self):
        _engine, net = _net(switch(4, bandwidth=1.0))
        route = net.route("gpu0", "gpu2")
        assert route == [("gpu0", "switch0"), ("switch0", "gpu2")]
        assert net.route("gpu0", "gpu2") is route  # cached

    def test_route_populates_reverse_pair(self, monkeypatch):
        """One lookup fills both directions: the reverse route is the
        mirrored edge list, served from cache without a second search."""
        _engine, net = _net(switch(4, bandwidth=1.0))
        searches = []
        search = nx.shortest_path
        monkeypatch.setattr(nx, "shortest_path", lambda graph, src, dst: (
            searches.append((src, dst)) or search(graph, src, dst)))
        net.route("gpu0", "gpu2")
        assert net.route("gpu2", "gpu0") == [
            ("gpu2", "switch0"), ("switch0", "gpu0")
        ]
        assert searches == [("gpu0", "gpu2")]

    def test_reverse_route_matches_fresh_search_on_ring(self):
        _engine, net = _net(ring(6, bandwidth=1.0))
        forward = net.route("gpu1", "gpu3")
        reverse = net.route("gpu3", "gpu1")
        assert reverse == [(v, u) for u, v in reversed(forward)]

    def test_transfer_records_times(self):
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        flow = net.send("gpu0", "gpu1", 100.0, lambda t: None)
        engine.run()
        assert flow.delivered
        assert flow.deliver_time == pytest.approx(1.0)


class TestMaxMinProperties:
    @given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e4),
                          min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_property_shared_link_serializes_total(self, sizes):
        """All flows on one link: the last delivery happens exactly at
        total_bytes / bandwidth (work conservation)."""
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        done = {}
        for i, size in enumerate(sizes):
            _send(engine, net, "gpu0", "gpu1", size, done, i)
        engine.run()
        assert max(done.values()) == pytest.approx(sum(sizes) / 100.0, rel=1e-6)

    @given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e4),
                          min_size=2, max_size=6))
    @example(sizes=[4980.0, 10000.0, 9999.999999999998])
    @settings(max_examples=50, deadline=None)
    def test_property_smaller_finishes_first(self, sizes):
        # Asserted on delivery (callback) order, not delivery time: two
        # flows a few ulps apart can deliver at the same float time, and
        # a stable sort by time would then fall back to send order.
        engine, net = _net(ring(2, bandwidth=100.0, latency=0.0))
        order = []
        for i, size in enumerate(sizes):
            net.send("gpu0", "gpu1", size, lambda t, i=i: order.append(i))
        engine.run()
        assert [sizes[i] for i in order] == sorted(sizes)
