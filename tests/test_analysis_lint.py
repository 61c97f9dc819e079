"""Static-analysis lint rules: every rule fires exactly where expected on
corrupted inputs and stays silent on clean ones."""

import copy
import json
import re

import networkx as nx
import pytest

from repro import SimulationConfig, Tracer, get_gpu, get_model
from repro.analysis import (
    DEFAULT_REGISTRY,
    Finding,
    Report,
    detect_kind,
    lint_config,
    lint_spec,
    lint_trace,
    render_json,
    render_text,
    verify_path,
)
from repro.cli import main
from tests.plan_edits import set_deps


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), batch_size=32)


@pytest.fixture(scope="module")
def golden_dict(trace):
    return trace.to_dict()


@pytest.fixture()
def corrupt(golden_dict):
    """A fresh deep copy of the golden trace dict to mutate per test."""
    return copy.deepcopy(golden_dict)


def rule_ids(report):
    return set(report.rule_ids())


# ----------------------------------------------------------------------
# Zero false positives on clean inputs
# ----------------------------------------------------------------------
class TestCleanInputs:
    def test_clean_trace_object(self, trace):
        assert lint_trace(trace).ok

    def test_clean_trace_dict(self, golden_dict):
        assert lint_trace(golden_dict).ok

    def test_clean_transformer_trace(self):
        t = Tracer(get_gpu("A100")).trace(get_model("gpt2"), batch_size=8)
        assert lint_trace(t).ok

    def test_clean_inference_trace(self):
        t = Tracer(get_gpu("A100")).trace_inference(get_model("resnet18"), 16)
        assert lint_trace(t).ok

    @pytest.mark.parametrize("parallelism,kwargs", [
        ("single", {"num_gpus": 1}),
        ("ddp", {"num_gpus": 4}),
        ("tp", {"num_gpus": 4}),
        ("pp", {"num_gpus": 4, "chunks": 4}),
        ("hybrid", {"num_gpus": 4, "dp_degree": 2, "chunks": 2}),
    ])
    def test_clean_configs(self, trace, parallelism, kwargs):
        config = SimulationConfig(parallelism=parallelism, topology="ring",
                                  link_bandwidth=234e9, **kwargs)
        assert lint_config(config, trace=trace).ok

    def test_clean_config_all_named_topologies(self, trace):
        for topology in ("ring", "switch", "fat_tree", "dgx_hypercube"):
            config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                      topology=topology)
            report = lint_config(config, trace=trace)
            assert report.ok, f"{topology}: {[str(f) for f in report]}"


# ----------------------------------------------------------------------
# Trace rules
# ----------------------------------------------------------------------
class TestTraceRules:
    def test_tr001_schema_missing_field(self, corrupt):
        del corrupt["model_name"]
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR001"}
        assert "model_name" in report.findings[0].message

    def test_tr001_bad_version(self, corrupt):
        corrupt["format_version"] = 99
        assert rule_ids(lint_trace(corrupt)) == {"TR001"}

    def test_tr001_gates_other_rules(self, corrupt):
        # A schema violation plus a semantic one: only TR001 reports.
        del corrupt["gpu_name"]
        corrupt["operators"][0]["duration"] = -1.0
        assert rule_ids(lint_trace(corrupt)) == {"TR001"}

    def test_tr002_dangling_ref(self, corrupt):
        corrupt["operators"][3]["inputs"] = [999_999]
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR002"}
        assert report.findings[0].location == "operators[3]"

    def test_tr003_duplicate_tensor(self, corrupt):
        corrupt["tensors"].append(dict(corrupt["tensors"][0]))
        report = lint_trace(corrupt)
        assert "TR003" in rule_ids(report)
        dup = [f for f in report if f.rule == "TR003"]
        assert dup[0].location == f"tensors[{len(corrupt['tensors']) - 1}]"

    def test_tr004_negative_duration(self, corrupt):
        corrupt["operators"][5]["duration"] = -2.5
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR004"}
        assert report.findings[0].location == "operators[5]"

    def test_tr004_nan_flops(self, corrupt):
        corrupt["operators"][0]["flops"] = float("nan")
        assert rule_ids(lint_trace(corrupt)) == {"TR004"}

    def test_tr005_unknown_phase(self, corrupt):
        corrupt["operators"][2]["phase"] = "warmup"
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR005"}
        assert report.findings[0].location == "operators[2]"

    def test_tr006_phase_regression(self, corrupt):
        # Move the last (optimizer) operator to the front: every later
        # forward/backward op is then a phase regression.
        corrupt["operators"].insert(0, corrupt["operators"].pop())
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR006"}

    def test_tr007_nbytes_mismatch(self, corrupt):
        corrupt["tensors"][4]["nbytes"] += 4
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR007"}
        assert report.findings[0].location == "tensors[4]"

    def test_tr008_dataflow_cycle(self, corrupt):
        # Feed a downstream activation back into the first operator:
        # op0 -> op1 -> op0 becomes a strongly connected component.
        out1 = corrupt["operators"][1]["outputs"][0]
        corrupt["operators"][0]["inputs"] = (
            list(corrupt["operators"][0]["inputs"]) + [out1]
        )
        report = lint_trace(corrupt)
        assert "TR008" in rule_ids(report)

    def test_tr009_orphan_operator(self, corrupt):
        corrupt["operators"].append({
            "name": "ghost", "kind": "conv", "layer": "ghost",
            "phase": "optimizer", "duration": 1e-6, "flops": 0,
            "inputs": [], "outputs": [],
        })
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR009"}
        assert not report.has_errors  # warning only

    def test_tr010_orphan_tensor(self, corrupt):
        corrupt["tensors"].append({
            "id": 10_000_000, "dims": [4, 4], "dtype": "float32",
            "category": "activation", "nbytes": 64,
        })
        report = lint_trace(corrupt)
        assert rule_ids(report) == {"TR010"}
        assert not report.has_errors

    def test_tr011_negative_dim(self, corrupt):
        corrupt["tensors"][0]["dims"] = [-1, 8]
        report = lint_trace(corrupt)
        # The stale nbytes no longer matches either, but TR011 must fire.
        assert "TR011" in rule_ids(report)

    def test_tr011_unknown_dtype(self, corrupt):
        corrupt["tensors"][0]["dtype"] = "complex128"
        assert "TR011" in rule_ids(lint_trace(corrupt))

    def test_findings_are_capped(self, corrupt):
        for op in corrupt["operators"]:
            op["duration"] = -1.0
        report = lint_trace(corrupt)
        from repro.analysis.trace_rules import MAX_FINDINGS_PER_RULE

        assert len(report.findings) == MAX_FINDINGS_PER_RULE

    def test_not_json_object(self):
        report = lint_trace([1, 2, 3])
        assert rule_ids(report) == {"TR001"}


# ----------------------------------------------------------------------
# Config rules
# ----------------------------------------------------------------------
class TestConfigRules:
    def test_cf001_unknown_topology(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="moebius")
        report = lint_config(config)
        assert rule_ids(report) == {"CF001"}

    def test_cf001_missing_gpu_nodes(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=1e9, latency=1e-6)
        config = SimulationConfig(parallelism="ddp", num_gpus=4, topology=g)
        report = lint_config(config)
        assert rule_ids(report) == {"CF001"}

    def test_cf002_disconnected_islands(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=1e9, latency=1e-6)
        g.add_edge("gpu2", "gpu3", bandwidth=1e9, latency=1e-6)
        config = SimulationConfig(parallelism="ddp", num_gpus=4, topology=g)
        report = lint_config(config)
        assert rule_ids(report) == {"CF002"}

    def test_cf003_missing_link_attrs(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=1e9, latency=1e-6)
        g.add_edge("gpu1", "gpu2", latency=1e-6)             # no bandwidth
        g.add_edge("gpu2", "gpu0", bandwidth=-5.0, latency=1e-6)
        config = SimulationConfig(parallelism="ddp", num_gpus=3, topology=g)
        report = lint_config(config)
        assert rule_ids(report) == {"CF003"}
        assert len(report.findings) == 2

    def test_cf004_bandwidth_unit_mistake(self):
        # 234 "GB/s" typed as 234 B/s.
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring", link_bandwidth=234.0)
        report = lint_config(config)
        assert rule_ids(report) == {"CF004"}
        assert not report.has_errors

    def test_cf004_latency_unit_mistake(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring", link_latency=2.0)
        assert rule_ids(lint_config(config)) == {"CF004"}

    def test_cf005_too_many_stages(self, trace):
        layers = len(trace.forward_ops)
        config = SimulationConfig(parallelism="pp", num_gpus=layers + 3,
                                  topology="ring")
        report = lint_config(config, trace=trace)
        assert "CF005" in rule_ids(report)
        assert report.has_errors

    def test_cf006_chunks_exceed_batch(self, trace):
        config = SimulationConfig(parallelism="pp", num_gpus=4,
                                  topology="ring", chunks=64)
        report = lint_config(config, trace=trace)  # trace batch is 32
        assert "CF006" in rule_ids(report)

    def test_cf007_uneven_chunks(self, trace):
        config = SimulationConfig(parallelism="pp", num_gpus=4,
                                  topology="ring", chunks=5)
        report = lint_config(config, trace=trace)
        assert rule_ids(report) == {"CF007"}
        assert not report.has_errors

    def test_cf008_tp_uneven_shards(self, trace):
        # resnet18 weight element counts are not divisible by 5.
        config = SimulationConfig(parallelism="tp", num_gpus=5,
                                  topology="ring")
        report = lint_config(config, trace=trace)
        assert rule_ids(report) == {"CF008"}
        assert not report.has_errors

    def test_cf009_unknown_slowdown_device(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring",
                                  gpu_slowdowns={"gpu9": 1.5})
        report = lint_config(config)
        assert rule_ids(report) == {"CF009"}

    def test_cf010_unknown_target_gpu(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring", gpu="Z9000")
        report = lint_config(config)
        assert rule_ids(report) == {"CF010"}
        assert report.has_errors

    def test_cf011_bad_config_dict(self):
        report = lint_config({"parallelism": "warp-drive"})
        assert rule_ids(report) == {"CF011"}

    def test_trace_free_lint_skips_trace_rules(self):
        # Without a trace, stage/chunk/shard rules stay silent rather
        # than guessing.
        config = SimulationConfig(parallelism="pp", num_gpus=4,
                                  topology="ring", chunks=5)
        assert lint_config(config).ok


class TestNetworkRules:
    def test_clean_fabric_config(self):
        from repro.network.topology import TopologySpec

        config = SimulationConfig(
            parallelism="ddp", num_gpus=8,
            topology=TopologySpec("leaf_spine", {"gpus_per_leaf": 4}),
            oversubscription=2.0, routing="adaptive")
        assert lint_config(config).ok

    def test_nw001_invalid_fabric_shape(self):
        from repro.network.topology import TopologySpec

        # Odd k is not a buildable Clos.
        config = SimulationConfig(
            parallelism="ddp", num_gpus=8,
            topology=TopologySpec("fat_tree_clos", {"k": 3}))
        report = lint_config(config)
        assert rule_ids(report) == {"NW001"}
        assert report.has_errors

    def test_nw001_gates_downstream_graph_rules(self):
        from repro.network.topology import TopologySpec

        # rows=3 does not divide 8 GPUs; only the gate fires, not a
        # cascade of CF-rules complaining about the missing graph.
        config = SimulationConfig(
            parallelism="ddp", num_gpus=8,
            topology=TopologySpec("mesh2d", {"rows": 3}))
        assert rule_ids(lint_config(config)) == {"NW001"}

    def test_nw002_oversubscription_on_wrong_topology(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring", oversubscription=2.0)
        report = lint_config(config)
        assert rule_ids(report) == {"NW002"}
        assert report.has_errors

    def test_nw002_flipped_ratio_warns(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=8,
                                  topology="leaf_spine",
                                  oversubscription=0.25)
        report = lint_config(config)
        assert rule_ids(report) == {"NW002"}
        assert not report.has_errors  # severity downgraded to warning

    def test_nw003_unknown_routing(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=8,
                                  topology="leaf_spine", routing="spray")
        report = lint_config(config)
        assert rule_ids(report) == {"NW003"}
        assert report.has_errors

    def test_nw004_inert_routing_info(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring", routing="ecmp")
        report = lint_config(config)
        assert rule_ids(report) == {"NW004"}
        assert not report.has_errors

    def test_nw004_silent_on_multipath_fabric(self):
        config = SimulationConfig(parallelism="ddp", num_gpus=8,
                                  topology="leaf_spine", routing="ecmp")
        assert lint_config(config).ok

    def test_nw004_silent_on_prebuilt_graph(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=1e9, latency=1e-6)
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology=g, routing="ecmp")
        assert lint_config(config).ok


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_disable_by_id(self, corrupt):
        corrupt["operators"][0]["duration"] = -1.0
        scoped = DEFAULT_REGISTRY.scoped(disable=["TR004"])
        assert lint_trace(corrupt, registry=scoped).ok
        # The shared default registry is untouched.
        assert not lint_trace(corrupt).ok

    def test_disable_by_name(self, corrupt):
        corrupt["tensors"].append({
            "id": 10_000_001, "dims": [2], "dtype": "float32",
            "category": "activation", "nbytes": 8,
        })
        scoped = DEFAULT_REGISTRY.scoped(disable=["tensor-orphan"])
        assert lint_trace(corrupt, registry=scoped).ok

    def test_unknown_rule_reference(self):
        with pytest.raises(KeyError):
            DEFAULT_REGISTRY.scoped(disable=["TR999"])

    def test_catalogue_covers_ten_plus_rules(self):
        ids = {r.id for r in DEFAULT_REGISTRY.rules()}
        assert len(ids) >= 20
        for prefix in ("TR", "CF", "DV", "SZ", "SP"):
            assert any(i.startswith(prefix) for i in ids)


# ----------------------------------------------------------------------
# Sweep-spec linting
# ----------------------------------------------------------------------
class TestSpecLint:
    def test_clean_spec(self):
        spec = {
            "model": "resnet18", "batch": 32,
            "base": {"parallelism": "ddp", "topology": "ring"},
            "axes": {"num_gpus": [2, 4]},
        }
        assert lint_spec(spec).ok

    def test_sp001_bad_spec(self):
        report = lint_spec({"model": "resnet18", "frobnicate": True})
        assert rule_ids(report) == {"SP001"}

    def test_sp002_missing_trace_file(self, tmp_path):
        report = lint_spec({"trace": "no_such_trace.json"},
                           base_dir=tmp_path)
        assert rule_ids(report) == {"SP002"}

    def test_point_findings_carry_labels_and_dedup(self):
        spec = {
            "model": "resnet18", "batch": 32,
            "base": {"parallelism": "pp", "topology": "ring", "chunks": 5},
            "axes": {"num_gpus": [2, 4]},
        }
        report = lint_spec(spec)
        assert rule_ids(report) == {"CF007"}
        assert len(report.findings) == 1  # same message deduplicated
        assert "num_gpus=" in report.findings[0].location

    def test_example_spec_is_clean(self):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples/ddp_sweep.json"
        report = lint_spec(example)
        assert report.ok, [str(f) for f in report]


# ----------------------------------------------------------------------
# Plan and fault-spec linting
# ----------------------------------------------------------------------
class TestPlanLint:
    @pytest.fixture(scope="class")
    def plan_dict(self, trace):
        from repro import TrioSim

        sim = TrioSim(trace, SimulationConfig(parallelism="ddp", num_gpus=2),
                      record_timeline=False)
        return sim.build_plan().to_dict()

    def test_verify_path_clean_plan(self, tmp_path, plan_dict):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_dict))
        report, kind, _ = verify_path(path)
        assert kind == "plan" and report.ok

    def test_dv001_corrupt_plan(self, tmp_path, plan_dict):
        # Row 0 depends on row 5: a forward dependency reference.
        corrupt = set_deps(copy.deepcopy(plan_dict), 0, [5])
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(corrupt))
        report, kind, _ = verify_path(path)
        assert kind == "plan"
        assert rule_ids(report) == {"DV001"}

    def test_dv001_bad_schema_version(self, tmp_path, plan_dict):
        corrupt = copy.deepcopy(plan_dict)
        corrupt["schema_version"] = 999
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(corrupt))
        report, _, _ = verify_path(path, kind="plan")
        assert rule_ids(report) == {"DV001"}

    def test_pl002_empty_plan_file(self, tmp_path, plan_dict):
        empty = dict(plan_dict, dep_ptr=[0], dep_idx=[],
                     columns={name: [] for name in plan_dict["columns"]})
        path = tmp_path / "empty.plan.json"
        path.write_text(json.dumps(empty))
        report, kind, _ = verify_path(path)
        assert kind == "plan" and not report.has_errors
        assert rule_ids(report) == {"PL002"}

    def test_verify_path_faults_kind(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({
            "stragglers": [{"gpu": "gpu1", "start": 0.001,
                            "duration": 0.004, "factor": 2.0}],
        }))
        report, kind, _ = verify_path(path)
        assert kind == "faults" and report.ok

    def test_example_fault_specs_are_clean(self):
        from pathlib import Path

        examples = Path(__file__).parent.parent / "examples"
        for name in ("faults_stragglers.json", "faults_link_flap.json",
                     "faults_failover.json"):
            report, kind, _ = verify_path(examples / name)
            assert kind == "faults"
            assert report.ok, [str(f) for f in report]


# ----------------------------------------------------------------------
# Reporters + path dispatch
# ----------------------------------------------------------------------
class TestReporting:
    def test_render_text_clean(self):
        assert "clean" in render_text(Report(), source="x.json")

    def test_render_text_lists_findings(self):
        report = Report([Finding("TR002", "tensor-dangling-ref", "error",
                                 "boom", location="operators[0]")])
        text = render_text(report)
        assert "TR002" in text and "operators[0]" in text
        assert "1 error(s)" in text

    def test_render_json_round_trips(self):
        report = Report([Finding("CF004", "link-speed-range", "warning",
                                 "units")])
        data = json.loads(render_json(report, source="cfg"))
        assert data["source"] == "cfg"
        assert data["errors"] == 0 and data["warnings"] == 1
        assert data["findings"][0]["rule"] == "CF004"

    def test_detect_kind(self, golden_dict):
        assert detect_kind(golden_dict) == "trace"
        assert detect_kind({"model": "resnet18", "axes": {}}) == "spec"
        assert detect_kind({"parallelism": "ddp"}) == "config"

    def test_verify_path_auto(self, tmp_path, golden_dict):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(golden_dict))
        report, kind, _ = verify_path(path)
        assert kind == "trace" and report.ok

    @pytest.mark.parametrize("kind, rule", [
        ("trace", "TR001"), ("spec", "SP001"), ("plan", "DV001"),
        ("faults", "CF011"), ("config", "CF011"), ("auto", "CF011"),
    ])
    def test_verify_path_unreadable(self, tmp_path, kind, rule):
        # Each kind blames its own schema rule, not the config schema.
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        report, reported_kind, _ = verify_path(path, kind=kind)
        assert rule_ids(report) == {rule}
        assert reported_kind == (kind if kind != "auto" else "unknown")


# ----------------------------------------------------------------------
# Trace schema validation (satellite: TraceFormatError)
# ----------------------------------------------------------------------
class TestTraceFormatError:
    def test_missing_field_names_the_field(self, corrupt):
        from repro import Trace, TraceFormatError

        del corrupt["batch_size"]
        with pytest.raises(TraceFormatError, match="batch_size"):
            Trace.from_dict(corrupt)

    def test_wrong_type_is_reported(self, corrupt):
        from repro import Trace, TraceFormatError

        corrupt["operators"][0]["inputs"] = "oops"
        with pytest.raises(TraceFormatError, match="operators"):
            Trace.from_dict(corrupt)

    def test_is_value_error(self):
        from repro import TraceFormatError

        assert issubclass(TraceFormatError, ValueError)

    def test_load_rejects_malformed_json(self, tmp_path):
        from repro import Trace, TraceFormatError

        path = tmp_path / "broken.json"
        path.write_text("{]")
        with pytest.raises(TraceFormatError, match="JSON"):
            Trace.load(path)

    def test_value_level_problems_carry_position(self, corrupt):
        from repro import Trace, TraceFormatError

        corrupt["tensors"][2]["dtype"] = "complex128"
        with pytest.raises(TraceFormatError, match=r"tensors\[2\]"):
            Trace.from_dict(corrupt)

    def test_round_trip_still_works(self, trace):
        from repro import Trace

        clone = Trace.from_dict(trace.to_dict())
        assert clone.to_dict() == trace.to_dict()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestLintCli:
    """The shallow tier through the one CLI front end, ``repro verify``
    (which then deep-verifies traces under its default config)."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("lint") / "rn18.json"
        trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"),
                                              batch_size=32)
        trace.save(path)
        return path

    def test_clean_trace_exits_zero(self, trace_file, capsys):
        assert main(["verify", str(trace_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_trace_exits_one(self, trace_file, tmp_path, capsys):
        data = json.loads(trace_file.read_text())
        data["operators"][0]["inputs"] = [424242]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 1
        assert "TR002" in capsys.readouterr().out

    def test_warning_only_exits_zero(self, trace_file, tmp_path, capsys):
        data = json.loads(trace_file.read_text())
        data["tensors"].append({"id": 777777, "dims": [1],
                                "dtype": "float32",
                                "category": "activation", "nbytes": 4})
        warn = tmp_path / "warn.json"
        warn.write_text(json.dumps(data))
        assert main(["verify", str(warn)]) == 0
        assert "TR010" in capsys.readouterr().out

    def test_disable_flag(self, trace_file, tmp_path, capsys):
        data = json.loads(trace_file.read_text())
        data["operators"][0]["duration"] = -1.0
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 1
        assert "TR004" in capsys.readouterr().out
        # With TR004 off the shallow tier passes, and building the trace
        # for the deep tier then rejects the negative duration as TR001.
        assert main(["verify", str(bad), "--disable", "TR004"]) == 1
        out = capsys.readouterr().out
        assert "TR001" in out and "TR004" not in out
        assert main(["verify", str(bad), "--disable", "TR004",
                     "--disable", "trace-schema"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "TR00" not in out

    def test_json_format(self, trace_file, capsys):
        assert main(["verify", str(trace_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] == 0 and data["findings"] == []

    def test_list_rules(self, capsys):
        assert main(["verify", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("TR001", "CF002", "DV002", "SZ001", "SP001",
                        "NW001", "NW002", "NW003", "NW004", "SZ006",
                        "PL001", "PL002", "DV001", "DV005", "RC001",
                        "RC003"):
            assert rule_id in out
        assert set(re.findall(r"\bPL\d{3}\b", out)) == {"PL001", "PL002"}

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["verify"]) == 2

    def test_lint_subcommand_is_gone(self, trace_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(trace_file)])
        assert exc.value.code == 2

    def test_lint_spec_kind(self, capsys):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples/ddp_sweep.json"
        assert main(["verify", str(example), "--kind", "spec"]) == 0
