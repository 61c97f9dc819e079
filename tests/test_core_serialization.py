"""Tests for the serializable config/result API.

:class:`SimulationConfig` and :class:`SimulationResult` are the sweep
service's process-boundary and cache format, so round-trips must be exact
(bit-identical floats), keys must be stable, and schema drift must fail
loudly instead of returning mis-shaped objects.
"""

import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _build_parser
from repro.core.config import CONFIG_SCHEMA_VERSION, SimulationConfig
from repro.core.results import (
    RESULT_SCHEMA_VERSION,
    SimulationResult,
    TimelineRecord,
)
from repro.faults.spec import FaultSpec
from repro.network.topology import TopologySpec
from repro.service.cache import ResultCache

# ----------------------------------------------------------------------
# Config round-trips
# ----------------------------------------------------------------------


class TestConfigRoundTrip:
    def test_default_config(self):
        cfg = SimulationConfig()
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_non_default_fields(self):
        cfg = SimulationConfig(
            parallelism="pp", num_gpus=4, batch_size=64, chunks=2,
            topology="switch", link_bandwidth=100e9, link_latency=1e-6,
            gpu="H100", overlap=False, collective_scheme="tree",
            perf_model="piecewise", iterations=3,
            gpu_slowdowns={"gpu1": 1.5}, include_host_transfers=True,
        )
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip_is_exact(self):
        cfg = SimulationConfig(link_bandwidth=25.000000001e9,
                               link_latency=1.9999999e-6)
        text = json.dumps(cfg.to_dict())
        restored = SimulationConfig.from_dict(json.loads(text))
        assert restored.link_bandwidth == cfg.link_bandwidth
        assert restored.link_latency == cfg.link_latency

    def test_graph_topology_round_trips(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=25e9, latency=2e-6)
        g.add_edge("gpu1", "gpu2", bandwidth=5e9, latency=1e-5)
        cfg = SimulationConfig(topology=g, num_gpus=3)
        restored = SimulationConfig.from_dict(cfg.to_dict())
        assert isinstance(restored.topology, nx.Graph)
        assert set(restored.topology.nodes) == set(g.nodes)
        assert restored.topology.edges["gpu0", "gpu1"]["bandwidth"] == 25e9
        assert restored.topology.edges["gpu1", "gpu2"]["latency"] == 1e-5
        # The serialized forms agree even though nx.Graph has no __eq__.
        assert restored.to_dict() == cfg.to_dict()

    def test_partial_dict_uses_defaults(self):
        cfg = SimulationConfig.from_dict({"parallelism": "tp", "num_gpus": 2})
        assert cfg.parallelism == "tp"
        assert cfg.num_gpus == 2
        assert cfg.link_bandwidth == SimulationConfig().link_bandwidth

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            SimulationConfig.from_dict({"num_gpu": 4})

    def test_unknown_schema_version_rejected(self):
        data = SimulationConfig().to_dict()
        data["schema_version"] = CONFIG_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            SimulationConfig.from_dict(data)

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"num_gpus": 0})


_configs = st.builds(
    SimulationConfig,
    parallelism=st.sampled_from(["single", "ddp", "tp", "pp"]),
    num_gpus=st.integers(min_value=1, max_value=16),
    batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
    chunks=st.integers(min_value=1, max_value=4),
    topology=st.sampled_from(["ring", "switch", "mesh2d"]),
    link_bandwidth=st.floats(min_value=1e9, max_value=1e12,
                             allow_nan=False, allow_infinity=False),
    link_latency=st.floats(min_value=0.0, max_value=1e-4,
                           allow_nan=False, allow_infinity=False),
    gpu=st.one_of(st.none(), st.sampled_from(["A40", "A100", "H100"])),
    overlap=st.booleans(),
    collective_scheme=st.sampled_from(["ring", "tree"]),
    perf_model=st.sampled_from(["li", "piecewise"]),
    iterations=st.integers(min_value=1, max_value=3),
)


@given(cfg=_configs)
@settings(max_examples=60, deadline=None)
def test_property_config_round_trip(cfg):
    """from_dict(to_dict(c)) == c for any valid serializable config."""
    data = cfg.to_dict()
    restored = SimulationConfig.from_dict(json.loads(json.dumps(data)))
    assert restored == cfg


@given(cfg=_configs)
@settings(max_examples=60, deadline=None)
def test_property_cache_key_stable_and_discriminating(cfg):
    """Equal configs share a key; any field change produces a new key."""
    twin = SimulationConfig.from_dict(cfg.to_dict())
    assert twin.cache_key() == cfg.cache_key()
    changed = SimulationConfig.from_dict(
        {**cfg.to_dict(), "num_gpus": cfg.num_gpus + 1}
    )
    assert changed.cache_key() != cfg.cache_key()


def _pinned_configs():
    graph = nx.Graph()
    graph.add_edge("gpu0", "gpu1", bandwidth=50e9, latency=1e-6)
    graph.add_edge("gpu1", "gpu2", bandwidth=25e9, latency=3e-6)
    return {
        "graph": SimulationConfig(num_gpus=3, topology=graph),
        "spec": SimulationConfig(
            num_gpus=16, routing="ecmp",
            topology=TopologySpec("leaf_spine", {"gpus_per_leaf": 4})),
        "faults": SimulationConfig(num_gpus=4, faults=FaultSpec(stragglers=[
            {"gpu": "gpu1", "start": 0.0, "duration": 0.01,
             "factor": 2.0}])),
        "deadlines": SimulationConfig(num_gpus=2, deadline_soft=5.0,
                                      deadline_hard=10.0),
    }


#: ``(cache_key(), point_key(timeline=False), point_key(timeline=True))``
#: per config of :func:`_pinned_configs`, with trace key ``"trace-key"``.
#: Result caches and sweep journals are addressed by these keys, so a
#: change here orphans every entry written before it.
KEY_PINS = {
    "graph": (
        "1082596b295e29151042516bcde9e3855d040b577d431c042b888614a13746d2",
        "978b923343a55c27f15524eabafc7d7e32864ee3e2118d754a73cdf6a511d8c8",
        "d6968d4819803b4981bc0015eb74e093e8b649983c7cf1094960310fba502850",
    ),
    "spec": (
        "c9c6a4fd94ad53e085dbd270dbd8b63cb36173a5aa2bc48e85875d566ae77d74",
        "bb2c10a28c550c2b0bba3f40aabcd653b823664bd1b7e13f86e297e6d6efd90b",
        "d2bd3566594356d41a231deff54ea018cb7b1998e13257763c2d55e20ad10315",
    ),
    "faults": (
        "55856fb3e7a0e6355b1e78dd99806ede778e7951ed470c1da78d473a8d5f82ca",
        "64d2457ea3ff13cc81aec1f243bc622c7840db86ab2628119c9ccbeb2c579793",
        "ba10d98cffb7e6f6e652b6c8d78d7e6b3ab5a7d4fbf607ef4c2ae0ed1122033a",
    ),
    "deadlines": (
        "cebd5af61a8ef442eeea7cee4f21524093dbd80e4fde8259eccbb377600c1dcd",
        "328cac9c07e7483d0c92e879c0af49de94cc4f09d0a91daf00d4309aef268a9e",
        "34cfa1b51537809f17fd867a1279a441c08600aadd2399a0d8f07352642c84f7",
    ),
}


@pytest.mark.parametrize("name", sorted(KEY_PINS))
def test_cache_and_point_keys_pinned(name):
    cfg = _pinned_configs()[name]
    keys = (cfg.cache_key(),
            ResultCache.point_key("trace-key", cfg, False),
            ResultCache.point_key("trace-key", cfg, True))
    assert keys == KEY_PINS[name]


# ----------------------------------------------------------------------
# New validation rules
# ----------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"link_bandwidth": 0.0},
        {"link_bandwidth": -25e9},
        {"link_latency": -1e-6},
        {"host_bandwidth": 0.0},
        {"host_latency": -1e-9},
        {"bucket_bytes": 0},
        {"gpu_slowdowns": {"gpu0": 0.0}},
        {"gpu_slowdowns": {"gpu0": -2.0}},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)


# ----------------------------------------------------------------------
# from_cli_args: one construction path for simulate and sweep
# ----------------------------------------------------------------------


class TestFromCliArgs:
    def _parse(self, *extra):
        return _build_parser().parse_args(["simulate", "t.json", *extra])

    def test_defaults_match_config_defaults(self):
        cfg = SimulationConfig.from_cli_args(self._parse())
        base = SimulationConfig()
        assert cfg.num_gpus == base.num_gpus
        assert cfg.link_bandwidth == base.link_bandwidth
        assert cfg.batch_size is None
        assert cfg.gpu is None

    def test_flags_map_to_fields(self):
        cfg = SimulationConfig.from_cli_args(self._parse(
            "--parallelism", "pp", "--num-gpus", "4", "--batch", "64",
            "--chunks", "2", "--bandwidth", "100e9", "--latency", "1e-6",
            "--gpu", "H100", "--collective", "tree", "--iterations", "2",
            "--topology", "switch",
        ))
        assert cfg == SimulationConfig(
            parallelism="pp", num_gpus=4, batch_size=64, chunks=2,
            link_bandwidth=100e9, link_latency=1e-6, gpu="H100",
            collective_scheme="tree", iterations=2, topology="switch",
        )

    def test_slow_flag_parses_slowdowns(self):
        cfg = SimulationConfig.from_cli_args(self._parse(
            "--slow", "gpu0=1.5", "--slow", "gpu2=2.0"))
        assert cfg.gpu_slowdowns == {"gpu0": 1.5, "gpu2": 2.0}

    def test_invalid_values_still_validate(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_cli_args(self._parse("--bandwidth", "-1"))


# ----------------------------------------------------------------------
# Result round-trips
# ----------------------------------------------------------------------

_records = st.builds(
    TimelineRecord,
    name=st.text(min_size=1, max_size=12),
    kind=st.sampled_from(["compute", "transfer"]),
    resource=st.text(min_size=1, max_size=12),
    start=st.floats(min_value=0.0, max_value=1e3,
                    allow_nan=False, allow_infinity=False),
    end=st.floats(min_value=0.0, max_value=1e3,
                  allow_nan=False, allow_infinity=False),
    phase=st.one_of(st.none(), st.sampled_from(["forward", "backward"])),
    layer=st.one_of(st.none(), st.text(max_size=8)),
)

_finite = st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False)

_results = st.builds(
    SimulationResult,
    total_time=_finite,
    compute_time=_finite,
    communication_time=_finite,
    per_gpu_busy=st.dictionaries(st.text(min_size=1, max_size=6), _finite,
                                 max_size=4),
    per_layer=st.dictionaries(st.text(min_size=1, max_size=6), _finite,
                              max_size=4),
    per_phase=st.dictionaries(st.text(min_size=1, max_size=6), _finite,
                              max_size=3),
    timeline=st.lists(_records, max_size=5),
    wall_time=_finite,
    events=st.integers(min_value=0, max_value=10**9),
    iteration_times=st.lists(_finite, max_size=4),
)


@given(result=_results)
@settings(max_examples=60, deadline=None)
def test_property_result_round_trip(result):
    """to_json/from_json restore every field bit-exactly."""
    assert SimulationResult.from_json(result.to_json()) == result


class TestResultSerialization:
    def test_version_embedded(self):
        data = SimulationResult(1.0, 0.5, 0.5).to_dict()
        assert data["schema_version"] == RESULT_SCHEMA_VERSION

    def test_unknown_version_rejected(self):
        data = SimulationResult(1.0, 0.5, 0.5).to_dict()
        data["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            SimulationResult.from_dict(data)

    def test_missing_version_rejected(self):
        data = SimulationResult(1.0, 0.5, 0.5).to_dict()
        del data["schema_version"]
        with pytest.raises(ValueError):
            SimulationResult.from_dict(data)

    def test_timeline_records_survive(self):
        rec = TimelineRecord(name="conv1", kind="compute", resource="gpu0",
                             start=0.0, end=1.5e-3, phase="forward",
                             layer="conv1")
        result = SimulationResult(1.0, 0.5, 0.5, timeline=[rec])
        restored = SimulationResult.from_json(result.to_json())
        assert restored.timeline == [rec]
        assert restored.timeline[0].duration == rec.duration
