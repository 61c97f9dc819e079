"""Smoke tests for the experiment harness (quick variants of each figure)."""

import pytest

from repro.experiments import fig06, fig07, fig08, fig09, fig10, fig12, fig13, fig14, fig16
from repro.experiments.harness import ExperimentResult, Row


class TestHarnessTypes:
    def test_row_error_math(self):
        row = Row("x", measured=2.0, predicted=2.2)
        assert row.error == pytest.approx(0.1)
        assert row.abs_error == pytest.approx(0.1)
        assert row.normalized == pytest.approx(1.1)

    def test_row_without_measurement(self):
        row = Row("x", measured=None, predicted=1.0)
        assert row.error is None
        assert row.normalized is None

    def test_result_mean_abs_error_filter(self):
        res = ExperimentResult("t", "title")
        res.add(Row("a/P1", 1.0, 1.1))
        res.add(Row("b/P2", 1.0, 1.3))
        assert res.mean_abs_error("/P1") == pytest.approx(0.1)
        assert res.mean_abs_error() == pytest.approx(0.2)

    def test_mean_abs_error_no_match_raises(self):
        res = ExperimentResult("t", "title")
        with pytest.raises(ValueError):
            res.mean_abs_error("/P9")

    def test_table_renders(self):
        res = ExperimentResult("t", "title")
        res.add(Row("a", 1.0, 1.1))
        res.add(Row("b", None, 2.0))
        text = res.table()
        assert "title" in text and "err" in text


@pytest.mark.slow
class TestQuickFigures:
    """Each figure's quick variant runs and lands in a sane error band."""

    def test_fig06(self):
        res = fig06.run(quick=True, runs=3)
        assert res.mean_abs_error() < 0.10
        assert len(res.rows) == 6  # 3 models x 2 GPUs

    def test_fig07(self):
        res = fig07.run(quick=True, runs=3)
        assert res.mean_abs_error() < 0.15

    def test_fig08(self):
        res = fig08.run(quick=True, runs=3)
        assert res.mean_abs_error("/P1") < 0.10
        assert res.mean_abs_error("/P2") < 0.10

    def test_fig09(self):
        res = fig09.run(quick=True, runs=3)
        assert res.mean_abs_error() < 0.15

    def test_fig10(self):
        res = fig10.run(quick=True, runs=3)
        assert res.mean_abs_error("c1") < 0.10
        # 3 models x 2 GPU counts x 3 chunk settings
        assert len(res.rows) == 18

    def test_fig12_ordering_claims(self):
        res = fig12.run(quick=True, runs=3)
        # DP is the fastest measured and predicted strategy per model.
        for model in ("RN-50", "DN-121", "VGG-16", "GPT-2"):
            dp = res.row(f"{model}/dp")
            tp = res.row(f"{model}/tp")
            pp = res.row(f"{model}/pp")
            assert dp.measured < min(tp.measured, pp.measured)
            assert dp.predicted < min(tp.predicted, pp.predicted)

    def test_fig13_tp_comm_dominates(self):
        res = fig13.run(quick=True)
        for row in res.rows:
            if row.label.endswith("/tp"):
                twin = res.row(row.label.replace("/tp", "/ddp"))
                assert row.detail["comm_ratio"] > twin.detail["comm_ratio"]

    def test_fig14_within_seconds(self):
        res = fig14.run(quick=True)
        assert all(r.predicted < 30.0 for r in res.rows)

    def test_fig16_backup_always_helps(self):
        res = fig16.run(quick=True)
        for row in res.rows:
            assert row.detail["speedup"] >= 1.0


@pytest.mark.slow
class TestRemainingArtifacts:
    def test_fig11_single_model(self):
        from repro.experiments import fig11

        res = fig11.run(models=["resnet50"], runs=3)
        # 4 strategies x (2 case-1 sources + case 2) = 12 rows.
        assert len(res.rows) == 12
        assert res.mean_abs_error("/case2") < 0.15

    def test_fig15_quick(self):
        from repro.experiments import fig15

        res = fig15.run(quick=True)
        vgg = res.row("VGG-19/electrical")
        assert vgg.detail["comm_ratio"] > 0.7
        # Exact totals: the photonic points run on a network factory
        # handed to TrioSim, the electrical ones through the sweep.
        assert {r.label: r.predicted.hex() for r in res.rows} == {
            "VGG-19/electrical": "0x1.cffa2a156c790p-5",
            "VGG-19/photonic": "0x1.133b73781c48dp-5",
            "RN-50/electrical": "0x1.558f62b2cb560p-5",
            "RN-50/photonic": "0x1.aafdf777e088cp-6",
        }

    def test_table1_features_and_errors(self):
        from repro.experiments import table1

        res = table1.run(quick=True, runs=3)
        assert res.features["Trace Requirement"]["TrioSim"] == "Single-GPU"
        assert res.measured_error["DP"] < 0.06
        assert "table1" in res.table()

    def test_sensitivity_quick(self):
        from repro.experiments import sensitivity

        res = sensitivity.run(quick=True, runs=3)
        assert all(r.predicted < 0.06 for r in res.rows)

    def test_to_csv_round(self):
        from repro.experiments import fig13

        res = fig13.run(quick=True)
        csv = res.to_csv()
        assert csv.splitlines()[0] == "label,measured_s,predicted_s,error"
        assert len(csv.splitlines()) == len(res.rows) + 1

    def test_fabric_quick(self):
        from repro.experiments import fabric
        from repro.network.routing import routing_names

        res = fabric.run(quick=True)
        assert len(res.rows) == len(routing_names()) * 3  # 3 scenarios
        # Every strategy starts from the same healthy fabric.
        healthy = {r.predicted for r in res.rows
                   if r.label.endswith("/healthy")}
        assert len(healthy) == 1
        # Static ECMP is dragged down by the failed uplink; adaptive
        # steers around it and stays near its healthy baseline.
        ecmp = res.row("ecmp/failed")
        adaptive = res.row("adaptive/failed")
        assert ecmp.detail["slowdown"] > 2.0
        assert adaptive.detail["slowdown"] < 1.5
        assert adaptive.predicted < ecmp.predicted
        # The degraded uplink carries fewer adaptive flows than ECMP ones.
        assert adaptive.detail["fault_link_flows"] <= \
            ecmp.detail["fault_link_flows"]
