"""Circuit-switching photonic network model (Lightmatter Passage, §7.1).

Passage is a wafer-scale photonic interposer: once a logical link (a
circuit occupying a frequency band) is established between two chiplets,
data moves at full bandwidth with nearly distance-independent latency.
The model implements the paper's 3-step Send — (1) establish the link if
absent (a configurable setup latency), (2) reserve buffer space, and
(3) move the data — plus the port-management policy: each GPU has a
limited number of photonic ports, and when none is free the idle circuit
that has been unused the longest is torn down (LRU).

Transfers sharing one circuit split its bandwidth equally; distinct
circuits never contend (they occupy disjoint frequency bands).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.network.base import Transfer

_RATE_EPS = 1e-9

Pair = FrozenSet[str]


class _PhotonicFlow(Transfer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.remaining: float = self.nbytes
        self.rate: float = 0.0
        self.last_update: float = 0.0
        self.deliver_event: Optional[Event] = None


@dataclass
class _Circuit:
    pair: Pair
    established: bool = False
    establishing: bool = False
    last_used: float = 0.0
    flows: List[_PhotonicFlow] = field(default_factory=list)
    waiting: List[_PhotonicFlow] = field(default_factory=list)

    @property
    def idle(self) -> bool:
        return self.established and not self.flows and not self.waiting


class PhotonicNetwork:
    """Circuit-switching photonic transport.

    Parameters
    ----------
    engine:
        Simulation engine.
    nodes:
        Device names that may communicate (any-to-any once circuits exist).
    bandwidth:
        Per-circuit bandwidth in bytes/second (the case study uses
        484 GB/s across 8 links).
    setup_latency:
        Time to establish a logical link (20 ms in the case study).
    ports_per_node:
        Photonic port budget per device; circuits consume one port at each
        endpoint.
    link_latency:
        Propagation latency of an established circuit (near-zero and
        distance-independent on the wafer).
    """

    def __init__(self, engine: Engine, nodes, bandwidth: float,
                 setup_latency: float = 20e-3, ports_per_node: int = 8,
                 link_latency: float = 0.5e-6):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if ports_per_node < 1:
            raise ValueError("ports_per_node must be >= 1")
        self.engine = engine
        self.nodes: Set[str] = set(nodes)
        self.bandwidth = float(bandwidth)
        self.setup_latency = float(setup_latency)
        self.ports_per_node = ports_per_node
        self.link_latency = float(link_latency)
        self._circuits: Dict[Pair, _Circuit] = {}
        self._ports_used: Dict[str, int] = {node: 0 for node in self.nodes}
        self._pending: List[_PhotonicFlow] = []  # waiting for a free port
        self._ids = itertools.count()
        self.circuits_established = 0
        self.circuits_torn_down = 0
        self.delivered_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, nbytes: float,
             callback: Callable[[Transfer], None], tag: object = None) -> Transfer:
        """Start a transfer, establishing a circuit when necessary."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"unknown endpoint in {src}->{dst}")
        flow = _PhotonicFlow(next(self._ids), src, dst, float(nbytes), callback, tag)
        flow.start_time = self.engine.now
        if src == dst or nbytes == 0:
            self.engine.call_after(0.0, lambda _ev, f=flow: self._deliver_local(f))
            return flow
        self._admit(flow)
        return flow

    def ports_in_use(self, node: str) -> int:
        return self._ports_used[node]

    # ------------------------------------------------------------------
    # Circuit management
    # ------------------------------------------------------------------
    def _admit(self, flow: _PhotonicFlow) -> None:
        pair = frozenset((flow.src, flow.dst))
        circuit = self._circuits.get(pair)
        if circuit is not None and (circuit.established or circuit.establishing):
            if circuit.established:
                self._attach(circuit, flow)
            else:
                circuit.waiting.append(flow)
            return
        if not self._reserve_ports(flow.src, flow.dst):
            self._pending.append(flow)
            return
        circuit = _Circuit(pair=pair, establishing=True)
        circuit.waiting.append(flow)
        self._circuits[pair] = circuit
        self.engine.call_after(
            self.setup_latency, lambda _ev, c=circuit: self._circuit_up(c)
        )

    def _reserve_ports(self, a: str, b: str) -> bool:
        """Reserve one port on each endpoint, evicting LRU idle circuits
        when a side is full.  Returns False when no port can be freed."""
        for node in (a, b):
            while self._ports_used[node] >= self.ports_per_node:
                if not self._evict_idle(node):
                    return False
        self._ports_used[a] += 1
        self._ports_used[b] += 1
        return True

    def _evict_idle(self, node: str) -> bool:
        """Tear down the longest-idle established circuit touching *node*."""
        candidates = [
            c for c in self._circuits.values() if c.idle and node in c.pair
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda c: c.last_used)
        for endpoint in victim.pair:
            self._ports_used[endpoint] -= 1
        del self._circuits[victim.pair]
        self.circuits_torn_down += 1
        return True

    def _circuit_up(self, circuit: _Circuit) -> None:
        circuit.establishing = False
        circuit.established = True
        circuit.last_used = self.engine.now
        self.circuits_established += 1
        waiting, circuit.waiting = circuit.waiting, []
        for flow in waiting:
            self._attach(circuit, flow)

    # ------------------------------------------------------------------
    # Data movement on an established circuit
    # ------------------------------------------------------------------
    def _attach(self, circuit: _Circuit, flow: _PhotonicFlow) -> None:
        flow.last_update = self.engine.now
        circuit.flows.append(flow)
        circuit.last_used = self.engine.now
        self._reallocate(circuit)

    def _reallocate(self, circuit: _Circuit) -> None:
        now = self.engine.now
        for flow in circuit.flows:
            flow.remaining -= flow.rate * (now - flow.last_update)
            flow.remaining = max(flow.remaining, 0.0)
            flow.last_update = now
        share = self.bandwidth / max(len(circuit.flows), 1)
        for flow in circuit.flows:
            flow.rate = share
            if flow.deliver_event is not None:
                flow.deliver_event.cancel()
            eta = flow.remaining / share + self.link_latency if flow.remaining else 0.0
            flow.deliver_event = self.engine.call_after(
                eta, lambda _ev, c=circuit, f=flow: self._deliver(c, f)
            )

    def _deliver(self, circuit: _Circuit, flow: _PhotonicFlow) -> None:
        flow.deliver_time = self.engine.now
        flow.deliver_event = None
        circuit.flows.remove(flow)
        circuit.last_used = self.engine.now
        if circuit.flows:
            self._reallocate(circuit)
        self.delivered_count += 1
        flow.callback(flow)
        self._drain_pending()

    def _deliver_local(self, flow: _PhotonicFlow) -> None:
        flow.deliver_time = self.engine.now
        self.delivered_count += 1
        flow.callback(flow)

    def _drain_pending(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for flow in pending:
            self._admit(flow)
