"""Tests for Li's Model (regression performance model)."""

import importlib.machinery
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpus.specs import get_gpu
from repro.perfmodel import li_model
from repro.perfmodel.features import features, op_features
from repro.perfmodel.li_model import LiModel
from repro.trace.records import OperatorRecord, TensorRecord
from repro.trace.trace import Trace
from repro.trace.tracer import Tracer
from repro.workloads import MODEL_NAMES, get_model

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _synthetic_trace(a=1e-12, b=1e-10, c=1e-6, n=20, kind="conv"):
    """Trace whose op times follow an exact linear law."""
    trace = Trace("synth", "A100", 1)
    rng = np.random.default_rng(0)
    tid = 0
    for i in range(n):
        elems = int(rng.integers(1000, 100000))
        flops = float(rng.uniform(1e8, 1e10))
        trace.add_tensor(TensorRecord(tid, (elems,), "float32", "activation"))
        trace.add_tensor(TensorRecord(tid + 1, (elems,), "float32", "activation"))
        nbytes = 2 * elems * 4
        duration = a * flops + b * nbytes + c
        trace.add_operator(OperatorRecord(
            f"op{i}", kind, f"l{i}", "forward", duration, flops,
            (tid,), (tid + 1,)))
        tid += 2
    return trace


class TestFeatures:
    def test_vector_shape(self):
        f = features(10.0, 20.0)
        assert list(f) == [10.0, 20.0, 1.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            features(-1, 0)

    def test_op_features_uses_tensor_table(self):
        trace = _synthetic_trace(n=1)
        op = trace.operators[0]
        f = op_features(trace, op)
        assert f[0] == op.flops
        assert f[1] == trace.op_bytes(op)


class TestFitRecovery:
    def test_recovers_exact_linear_law(self):
        a, b, c = 2e-12, 3e-10, 5e-6
        trace = _synthetic_trace(a, b, c)
        model = LiModel.fit(trace)
        # Predict an unseen operator.
        flops, nbytes = 5e9, 123456.0
        expected = a * flops + b * nbytes + c
        assert model.predict("conv", flops, nbytes) == pytest.approx(expected, rel=0.02)

    def test_unknown_kind_falls_back_to_global(self):
        model = LiModel.fit(_synthetic_trace())
        assert model.predict("mystery", 1e9, 1e6) > 0

    def test_unfitted_model_raises(self):
        with pytest.raises(RuntimeError):
            LiModel().predict("conv", 1, 1)

    def test_known_kinds(self):
        model = LiModel.fit(_synthetic_trace())
        assert model.known_kinds == ["conv"]

    def test_small_class_throughput_fallback(self):
        trace = _synthetic_trace(n=2)
        model = LiModel.fit(trace)
        # Two samples only: fall back to proportional scaling; doubling
        # flops roughly doubles the prediction.
        t1 = model.predict("conv", 1e9, 1e6)
        t2 = model.predict("conv", 2e9, 2e6)
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_predictions_never_negative(self):
        model = LiModel.fit(_synthetic_trace())
        assert model.predict("conv", 0, 0) >= 0


class TestPredictScaled:
    def test_identity_scales_return_trace_time(self):
        trace = _synthetic_trace()
        model = LiModel.fit(trace)
        op = trace.operators[0]
        assert model.predict_scaled(trace, op, 1.0, 1.0) == op.duration

    def test_doubling_grows_time(self):
        trace = _synthetic_trace()
        model = LiModel.fit(trace)
        op = trace.operators[0]
        assert model.predict_scaled(trace, op, 2.0, 2.0) > op.duration

    def test_anchored_to_trace_time(self):
        """The hybrid prediction scales the *measured* time, preserving
        per-operator idiosyncrasy the plain regression would average out."""
        trace = _synthetic_trace()
        model = LiModel.fit(trace)
        op = trace.operators[0]
        ratio = (model.predict_scaled(trace, op, 2.0, 2.0) / op.duration)
        direct_ratio = (
            model.predict("conv", op.flops * 2, trace.op_bytes(op) * 2)
            / model.predict("conv", op.flops, trace.op_bytes(op))
        )
        assert ratio == pytest.approx(direct_ratio, rel=1e-6)

    @given(scale=st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_property_monotone_in_scale(self, scale):
        trace = _synthetic_trace()
        model = LiModel.fit(trace)
        op = trace.operators[0]
        smaller = model.predict_scaled(trace, op, scale, scale)
        larger = model.predict_scaled(trace, op, scale * 1.5, scale * 1.5)
        assert larger >= smaller


class TestOnRealTraces:
    def test_batch_doubling_prediction_close(self):
        """Fit at batch 64, predict batch-128 total within 10% of a real
        batch-128 trace."""
        tracer = Tracer(get_gpu("A100"), noise_sigma=0.0)
        t64 = tracer.trace(get_model("resnet18"), 64)
        t128 = tracer.trace(get_model("resnet18"), 128)
        model = LiModel.fit(t64)
        predicted = sum(
            model.predict_scaled(
                t64, op, 2.0 if op.phase != "optimizer" else 1.0,
                2.0 if op.phase != "optimizer" else 1.0)
            for op in t64.operators
        )
        assert predicted == pytest.approx(t128.total_duration, rel=0.10)


def _fit_problems(monkeypatch, traces):
    """Every ``(X, y, coef)`` that ``LiModel.fit`` solves over *traces*."""
    problems = []
    solve = li_model._nnls

    def record(X, y):
        coef = solve(X, y)
        problems.append((X, y, coef))
        return coef

    with monkeypatch.context() as patch:
        patch.setattr(li_model, "_nnls", record)
        for trace in traces:
            LiModel.fit(trace)
    return problems


@pytest.fixture(params=["kernel", "fallback"])
def solver_path(request, monkeypatch):
    """Run a test once through the compiled kernel and once through the
    ``scipy.optimize.nnls`` fallback."""
    if request.param == "kernel":
        if li_model._nnls_kernel() is None:
            pytest.skip("this scipy release is not verified for the kernel")
    else:
        monkeypatch.setattr(li_model, "_nnls_kernel", lambda: None)
    return request.param


class TestNnlsKernel:
    def test_matches_scipy_on_every_zoo_fit(self, monkeypatch):
        """Differential oracle: every fit problem of the zoo on three GPUs
        is solved bit for bit as ``scipy.optimize.nnls`` solves it, and the
        oracle imports cleanly after the kernel has loaded."""
        if li_model._nnls_kernel() is None:
            pytest.skip("add this scipy release to VERIFIED_SCIPY_RELEASES "
                        "to verify its kernel")
        traces = [Tracer(get_gpu(gpu)).trace(get_model(name), 16)
                  for gpu in ("A40", "A100", "H100") for name in MODEL_NAMES]
        problems = _fit_problems(monkeypatch, traces)
        assert len(problems) == 309
        assert max(X.shape[0] for X, _y, _coef in problems) == 1814

        from scipy.optimize import nnls

        mismatched = [i for i, (X, y, coef) in enumerate(problems)
                      if nnls(X, y)[0].tobytes() != coef.tobytes()]
        assert mismatched == []

    def test_fit_skips_the_optimize_package(self):
        """In a fresh interpreter, ``import repro`` loads no scipy module,
        and a fit on a verified release leaves ``scipy.optimize`` (0.5 s of
        imports) unimported."""
        code = (
            "import sys\n"
            "import repro\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from repro.perfmodel.li_model import LiModel, _nnls_kernel\n"
            "trace = repro.Tracer(repro.get_gpu('A100')).trace("
            "repro.get_model('resnet18'), 16)\n"
            "LiModel.fit(trace)\n"
            "print(_nnls_kernel() is not None)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env={"PYTHONPATH": SRC})
        after_import, kernel, optimize = proc.stdout.splitlines()
        assert after_import == "[]"
        if kernel == "True":
            assert optimize == "[]"
        else:
            assert "'scipy.optimize'" in optimize

    def test_gate_rejects_unverified_release(self, monkeypatch):
        monkeypatch.setattr(li_model, "VERIFIED_SCIPY_RELEASES", frozenset())
        assert li_model._nnls_kernel.__wrapped__() is None

    def test_missing_extension_file_gives_no_kernel(self, monkeypatch):
        import scipy

        release = tuple(int(part) for part in scipy.__version__.split(".")[:2])
        monkeypatch.setattr(li_model, "VERIFIED_SCIPY_RELEASES",
                            frozenset({release}))
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                            [".missing"])
        assert li_model._nnls_kernel.__wrapped__() is None

    def test_fallback_gives_the_same_coefficients(self, monkeypatch):
        trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 16)
        problems = _fit_problems(monkeypatch, [trace])
        assert problems
        monkeypatch.setattr(li_model, "_nnls_kernel", lambda: None)
        for X, y, coef in problems:
            assert li_model._nnls(X, y).tobytes() == coef.tobytes()

    @pytest.mark.parametrize("bad", ["X", "y"])
    def test_non_finite_input_raises(self, solver_path, bad):
        X = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        (X if bad == "X" else y)[1] = np.nan
        with pytest.raises(ValueError):
            li_model._nnls(X, y)

    def test_iteration_cap_raises(self, monkeypatch, solver_path):
        """Both paths raise ``RuntimeError`` when the routine reports
        (``info == 3``) that it reached its cap of ``3 * n`` iterations."""
        caps = []

        def capped(A, b, maxiter=None, **_):
            caps.append(maxiter)
            return np.zeros(A.shape[1]), 0.0, 3

        if solver_path == "kernel":
            monkeypatch.setattr(li_model, "_nnls_kernel", lambda: capped)
        else:
            import scipy.optimize._nnls

            monkeypatch.setattr(scipy.optimize._nnls, "_nnls", capped)
        with pytest.raises(RuntimeError):
            li_model._nnls(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert len(caps) == 1
        if solver_path == "kernel":
            assert caps == [9]
