"""Simulation configuration.

Everything the user can vary without re-collecting a trace (the paper's
headline capability): GPU count, parallelism strategy, batch size, network
topology/bandwidth/latency, target GPU model, DDP bucketing, GPipe chunks.
Every config is plain data: it serializes, caches and crosses process
boundaries.  A custom network model (e.g. the photonic interconnect) is
not part of it; it plugs into :class:`~repro.core.simulator.TrioSim`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Optional, Union

import networkx as nx

from repro.faults.spec import FaultSpec
from repro.gpus.specs import Platform
from repro.network.topology import TopologySpec

PARALLELISMS = ("single", "dp", "ddp", "tp", "pp", "hybrid", "fsdp")

#: Bumped whenever the meaning of a serialized config changes; part of
#: every :meth:`SimulationConfig.cache_key` so stale cache entries from
#: older schemas can never be returned.  v2 added ``routing`` /
#: ``routing_seed`` / ``oversubscription`` and :class:`TopologySpec`
#: topologies; v3 added the ``fold`` / ``fold_warmup`` /
#: ``fold_tolerance`` steady-state iteration-folding knobs.  v1 and v2
#: dicts still load (:meth:`SimulationConfig.from_dict` fills the new
#: fields with their defaults).  The per-point deadline fields
#: (``deadline_soft`` / ``deadline_hard``) ride schema v3 without a bump:
#: they are execution policy, excluded from :meth:`cache_key`, and absent
#: fields default to ``None`` — pre-deadline dicts and cache entries stay
#: valid byte-for-byte.
CONFIG_SCHEMA_VERSION = 3


@dataclass
class SimulationConfig:
    """Configuration of one TrioSim run.

    Attributes
    ----------
    parallelism:
        One of ``single``, ``dp`` (threaded DataParallel), ``ddp``
        (DistributedDataParallel), ``tp`` (tensor parallel), ``pp``
        (GPipe pipeline parallel), ``hybrid`` (DP x PP), or ``fsdp``
        (ZeRO-3-style fully-sharded data parallelism).
    num_gpus:
        Simulated GPU count.
    batch_size:
        Simulated batch size; defaults to the trace's.  Per-GPU for
        ``single``/``dp``/``ddp``; global (sharded/micro-batched) for
        ``tp``/``pp``.
    chunks:
        Micro-batch count for pipeline parallelism.
    dp_degree:
        For ``hybrid`` parallelism: the number of data-parallel pipeline
        replicas; the pipeline depth is ``num_gpus // dp_degree``.
    tp_scheme:
        Tensor-parallel communication scheme: ``layerwise`` (gather after
        every sharded layer, the paper's BlackSamorez style) or
        ``megatron`` (column/row-parallel pairing, two collectives per
        transformer block).
    pp_schedule:
        Pipeline schedule: ``gpipe`` (all-forward-then-backward, the
        paper's implementation) or ``1f1b`` (one-forward-one-backward,
        same bubble, far lower peak activation memory).
    topology:
        Topology name (built with the link parameters below), a
        :class:`~repro.network.topology.TopologySpec` (name + builder
        params — the registry-backed way to parameterize fabrics), a
        dict (``TopologySpec.to_dict()`` output), or a prebuilt
        ``networkx.Graph`` for arbitrary, possibly asymmetric networks.
        A spec with no params is normalized to its plain name, so old
        string configs keep their exact cache keys.
    link_bandwidth / link_latency:
        Link parameters used when *topology* is a name.  Like the paper,
        feed *achieved* (measured) bandwidth here.
    routing / routing_seed:
        Routing-strategy name (``shortest``, ``ecmp``, ``flowlet``,
        ``adaptive`` — see :mod:`repro.network.routing`) plus the hash
        seed.  Only multi-path fabrics are affected: on single-path
        topologies every strategy is bit-identical to ``shortest``.
    oversubscription:
        Convenience override of the ``leaf_spine`` oversubscription
        ratio (downlink:uplink capacity).  ``None`` keeps the builder's
        own default/params; a value is injected when the chosen topology
        supports the parameter and rejected (by lint rule NW002 and at
        build time) when it does not.
    gpu:
        Target GPU name for cross-GPU prediction; when it differs from the
        trace's GPU the trace is first rescaled with
        :class:`~repro.perfmodel.scaling.CrossGPUScaler`.
    bucket_bytes / overlap:
        DDP gradient bucketing controls.
    collective_scheme:
        AllReduce algorithm for data parallelism: ``ring`` (default),
        ``tree`` (latency-optimal for small buffers), or ``hierarchical``
        (multi-node: intra-node reduce-scatter, inter-node rails,
        intra-node all-gather; requires ``gpus_per_node``).
    gpus_per_node:
        Node size for hierarchical collectives and the ``multi_node``
        topology.
    perf_model:
        Operator performance model: ``li`` (linear regression, default)
        or ``piecewise`` (throughput curves; better for under-utilized
        operators — the paper's NeuSight-style alternative).
    iterations:
        Training iterations to simulate back to back (the paper:
        "TrioSim can finish the simulation of multiple batches of DNN
        training within seconds").
    gpu_slowdowns:
        Optional mapping of GPU name to a compute-duration multiplier
        (e.g. ``{"gpu2": 1.5}`` makes gpu2 50% slower) — heterogeneous or
        straggler systems, which symmetric-trace tools cannot express.
    include_host_transfers / host_bandwidth / host_latency:
        Model the CPU -> GPU input-batch copy each iteration over a host
        link of the given achieved bandwidth (off by default; data
        loaders usually prefetch).
    faults:
        Optional :class:`~repro.faults.spec.FaultSpec` — a deterministic
        schedule of stragglers, link degradations, and fail-stop failures
        injected into the run (see ``docs/faults.md``).  ``None`` (or an
        empty spec) leaves the simulation bit-identical to a fault-free
        build.
    fold / fold_warmup / fold_tolerance:
        Steady-state iteration folding (see ``docs/performance.md``): a
        multi-iteration run simulates ``fold_warmup`` warm-up iterations
        event-by-event, checks that the last two warm-up durations agree
        within ``fold_tolerance`` (relative), and extends the remaining
        iterations algebraically by shifting the steady-state schedule.
        Folding engages only on fold-eligible runs (no faults, no
        dynamic routing, no observers); ineligible or non-steady runs
        fall back to the exact event-by-event path, bit-identically.
        ``fold=False`` disables folding outright (the ``--no-fold``
        escape hatch).
    deadline_soft / deadline_hard:
        Optional per-point wall-clock budgets in seconds, enforced by the
        sweep service (see ``docs/resilience.md``).  The soft deadline is
        cooperative: an engine-heartbeat check stops the run between
        events and reports partial progress; the hard deadline is the
        watchdog backstop (``SIGALRM`` / async-exception injection) for
        runs wedged inside native code.  Both are *execution policy*, not
        simulation semantics — they are serialized with the config but
        excluded from :meth:`cache_key`, because a result that completed
        under any deadline is bit-identical to one computed without.
        ``None`` (the default) disables enforcement.
    """

    parallelism: str = "ddp"
    num_gpus: int = 1
    batch_size: Optional[int] = None
    chunks: int = 1
    dp_degree: Optional[int] = None
    tp_scheme: str = "layerwise"
    pp_schedule: str = "gpipe"
    topology: Union[str, TopologySpec, dict, nx.Graph] = "ring"
    link_bandwidth: float = 25e9
    link_latency: float = 2e-6
    routing: str = "shortest"
    routing_seed: int = 0
    oversubscription: Optional[float] = None
    gpu: Optional[str] = None
    bucket_bytes: int = 25 * 1024 * 1024
    overlap: bool = True
    collective_scheme: str = "ring"
    gpus_per_node: Optional[int] = None
    perf_model: str = "li"
    iterations: int = 1
    gpu_slowdowns: Optional[dict] = None
    include_host_transfers: bool = False
    host_bandwidth: float = 12e9
    host_latency: float = 5e-6
    faults: Optional[FaultSpec] = None
    fold: bool = True
    fold_warmup: int = 2
    fold_tolerance: float = 1e-9
    deadline_soft: Optional[float] = None
    deadline_hard: Optional[float] = None

    def __post_init__(self):
        if isinstance(self.faults, dict):
            self.faults = FaultSpec.from_dict(self.faults)
        if isinstance(self.topology, dict):
            # Graph payloads are decoded by from_dict before construction;
            # any other dict is a serialized TopologySpec.
            self.topology = TopologySpec.from_dict(self.topology)
        if isinstance(self.topology, TopologySpec) and not self.topology.params:
            # Param-less specs collapse to the plain name so configs that
            # predate TopologySpec keep bit-identical serialized forms
            # (and therefore cache keys modulo the schema version).
            self.topology = self.topology.name
        if not isinstance(self.routing, str) or not self.routing:
            raise ValueError("routing must be a strategy name (str)")
        if not isinstance(self.routing_seed, int) or isinstance(
                self.routing_seed, bool):
            raise ValueError("routing_seed must be an int")
        if self.oversubscription is not None:
            self.oversubscription = float(self.oversubscription)
            if self.oversubscription <= 0:
                raise ValueError("oversubscription must be positive")
        if self.parallelism not in PARALLELISMS:
            raise ValueError(
                f"unknown parallelism {self.parallelism!r}; known: {PARALLELISMS}"
            )
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.chunks < 1:
            raise ValueError("chunks must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if self.link_latency < 0:
            raise ValueError("link_latency must be non-negative")
        if self.host_bandwidth <= 0:
            raise ValueError("host_bandwidth must be positive")
        if self.host_latency < 0:
            raise ValueError("host_latency must be non-negative")
        if self.bucket_bytes < 1:
            raise ValueError("bucket_bytes must be >= 1")
        if self.gpu_slowdowns is not None:
            bad = [g for g, f in self.gpu_slowdowns.items() if f <= 0]
            if bad:
                raise ValueError(f"gpu_slowdowns must be positive: {bad}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not isinstance(self.fold, bool):
            raise ValueError("fold must be a bool")
        if not isinstance(self.fold_warmup, int) or isinstance(
                self.fold_warmup, bool) or self.fold_warmup < 1:
            raise ValueError("fold_warmup must be an int >= 1")
        self.fold_tolerance = float(self.fold_tolerance)
        if self.fold_tolerance < 0:
            raise ValueError("fold_tolerance must be non-negative")
        for name in ("deadline_soft", "deadline_hard"):
            value = getattr(self, name)
            if value is None:
                continue
            value = float(value)
            setattr(self, name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive (or None)")
        if (self.deadline_soft is not None and self.deadline_hard is not None
                and self.deadline_soft > self.deadline_hard):
            raise ValueError("deadline_soft must not exceed deadline_hard")
        if self.tp_scheme not in ("layerwise", "megatron"):
            raise ValueError(f"unknown tp_scheme {self.tp_scheme!r}")
        if self.pp_schedule not in ("gpipe", "1f1b"):
            raise ValueError(f"unknown pp_schedule {self.pp_schedule!r}")
        if self.perf_model not in ("li", "piecewise"):
            raise ValueError(f"unknown perf_model {self.perf_model!r}")
        if self.collective_scheme not in ("ring", "tree", "hierarchical"):
            raise ValueError(
                f"unknown collective scheme {self.collective_scheme!r}"
            )
        if self.collective_scheme == "hierarchical":
            if not self.gpus_per_node or self.num_gpus % self.gpus_per_node:
                raise ValueError(
                    "hierarchical collectives need gpus_per_node dividing num_gpus"
                )
        if self.parallelism == "hybrid":
            if self.dp_degree is None or self.dp_degree < 1:
                raise ValueError("hybrid parallelism requires dp_degree >= 1")
            if self.num_gpus % self.dp_degree:
                raise ValueError("num_gpus must be divisible by dp_degree")

    @classmethod
    def for_platform(cls, platform: Platform, **overrides) -> "SimulationConfig":
        """Build a config pre-filled from a validation platform (P1-P3)."""
        values = dict(
            num_gpus=platform.num_gpus,
            topology=platform.topology,
            link_bandwidth=platform.link_bandwidth,
            link_latency=platform.link_latency,
            gpu=platform.gpu.name,
        )
        values.update(overrides)
        return cls(**values)

    # ------------------------------------------------------------------
    # Serialization (the sweep service's process-boundary format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict that :meth:`from_dict` restores exactly
        (prebuilt ``networkx`` topologies included)."""
        data = {"schema_version": CONFIG_SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "faults" and value is not None:
                value = value.to_dict()
            if f.name == "topology" and isinstance(value, TopologySpec):
                value = value.to_dict()
            if f.name == "topology" and isinstance(value, nx.Graph):
                value = {
                    "__graph__": {
                        "nodes": [str(n) for n in value.nodes],
                        "edges": [
                            [str(u), str(v), dict(attrs)]
                            for u, v, attrs in value.edges(data=True)
                        ],
                    }
                }
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Missing fields take their defaults (so partial dicts — e.g. the
        ``base`` section of a sweep spec — are accepted); unknown keys are
        rejected so schema drift fails loudly.
        """
        data = dict(data)
        version = data.pop("schema_version", CONFIG_SCHEMA_VERSION)
        if version not in (1, 2, CONFIG_SCHEMA_VERSION):
            raise ValueError(f"unsupported config schema version {version}")
        # v1 dicts predate routing/routing_seed/oversubscription and
        # TopologySpec topologies; v2 dicts predate the fold knobs;
        # absent fields take their defaults below, which reproduce the
        # older semantics exactly (folding is differential-tested to
        # reproduce unfolded totals within fold_tolerance).
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        topology = data.get("topology")
        if isinstance(topology, dict) and "__graph__" in topology:
            payload = topology["__graph__"]
            graph = nx.Graph()
            graph.add_nodes_from(payload["nodes"])
            for u, v, attrs in payload["edges"]:
                graph.add_edge(u, v, **attrs)
            data["topology"] = graph
        return cls(**data)

    def cache_key(self) -> str:
        """Stable content digest of this config.

        Two configs with equal serialized content share a key; any field
        change (or a schema-version bump) changes it.  Used to address the
        sweep service's on-disk result cache.

        Execution-policy fields (``deadline_soft`` / ``deadline_hard``) are
        excluded: they bound *how long* a point may run, not *what* it
        computes, so a result that completed under a deadline is the same
        result — and pre-deadline cache entries stay addressable.
        """
        data = self.to_dict()
        data.pop("deadline_soft", None)
        data.pop("deadline_hard", None)
        canonical = json.dumps(data, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    @classmethod
    def from_cli_args(cls, ns) -> "SimulationConfig":
        """Build a config from an argparse namespace.

        The single construction path shared by ``repro simulate`` and
        ``repro sweep`` overrides — missing attributes fall back to field
        defaults, so partial namespaces work.
        """
        slow = getattr(ns, "slow", None) or []
        slowdowns = {
            spec.split("=")[0]: float(spec.split("=")[1]) for spec in slow
        } or None
        mapping = dict(
            parallelism=getattr(ns, "parallelism", None),
            num_gpus=getattr(ns, "num_gpus", None),
            batch_size=getattr(ns, "batch", None),
            chunks=getattr(ns, "chunks", None),
            dp_degree=getattr(ns, "dp_degree", None),
            topology=getattr(ns, "topology", None),
            link_bandwidth=getattr(ns, "bandwidth", None),
            link_latency=getattr(ns, "latency", None),
            routing=getattr(ns, "routing", None),
            routing_seed=getattr(ns, "routing_seed", None),
            oversubscription=getattr(ns, "oversubscription", None),
            gpu=getattr(ns, "gpu", None),
            collective_scheme=getattr(ns, "collective", None),
            gpus_per_node=getattr(ns, "gpus_per_node", None),
            tp_scheme=getattr(ns, "tp_scheme", None),
            pp_schedule=getattr(ns, "pp_schedule", None),
            iterations=getattr(ns, "iterations", None),
            gpu_slowdowns=slowdowns,
            fold=(False if getattr(ns, "no_fold", False) else None),
            fold_warmup=getattr(ns, "fold_warmup", None),
            fold_tolerance=getattr(ns, "fold_tolerance", None),
        )
        # Optional-by-design fields keep None; the rest default when absent.
        optional = {"batch_size", "dp_degree", "gpu", "gpus_per_node",
                    "gpu_slowdowns"}
        kwargs = {
            name: value for name, value in mapping.items()
            if value is not None or name in optional
        }
        return cls(**kwargs)
