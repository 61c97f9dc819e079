"""The tracer: collects single-GPU operator traces.

The original tool blends PyTorch Profiler timing with Execution Graph
Observer tensor metadata.  Our tracer plays both roles against the hardware
oracle's single-GPU execution model (the substitute for a physical GPU):
it walks the workload graph in execution order, "measures" each operator,
and records the tensors each operator reads and writes.

Conventions
-----------
* Activation tensors have dims ``(batch, per_sample_elems)`` so that batch
  rescaling is a pure dim[0] change.
* The ``gradient`` tensor category is reserved for *parameter* gradients —
  the payload data parallelism AllReduces.  Gradients of activations are
  recorded as ``activation`` tensors.
* One optimizer operator is emitted per parameterized layer (phase
  ``optimizer``).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.gpus.specs import GPUSpec
from repro.oracle.gpu_model import GPUExecutionModel
from repro.trace.records import OperatorRecord, TensorRecord
from repro.trace.trace import Trace
from repro.workloads.graph import ModelGraph

#: The profiled batch index; the paper profiles batch 41 after warm-up.
PROFILED_RUN = 41

#: Mean multiplicative inflation of traced operator times caused by
#: profiler instrumentation (the PyTorch profiler is not free), and the
#: spread of that inflation across operators.  This is a *systematic*
#: difference between traces and unprofiled runs — one of the error
#: sources the paper's validation absorbs.
PROFILER_INFLATION_MEAN = 1.018
PROFILER_INFLATION_SIGMA = 0.015

#: Instrumentation cost also varies by operator *class* (hook depth,
#: argument marshalling differ between, say, convolutions and norms).
#: This component is systematic per (GPU, class), so it does not average
#: out across a model's operators — it is what gives different models
#: different overall prediction biases, like the paper's figures show.
PROFILER_KIND_SIGMA = 0.022


class Tracer:
    """Collects an operator-level trace of one training iteration.

    Parameters
    ----------
    gpu:
        The GPU to "profile on".
    noise_sigma:
        Measurement noise of the profiler; 0 disables it.
    seed:
        Seed for the deterministic noise (matches the oracle's default so a
        trace agrees with the oracle it is validated against).
    """

    def __init__(self, gpu: GPUSpec, noise_sigma: float = 0.012, seed: int = 7,
                 profiler_overhead: bool = True):
        self.gpu = gpu
        self.gpu_model = GPUExecutionModel(gpu, noise_sigma, seed)
        self.profiler_overhead = profiler_overhead

    @staticmethod
    def _lognormal(sigma: float, *identity) -> float:
        digest = hashlib.blake2b(
            repr(identity).encode(), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        return float(np.exp(rng.normal(0.0, sigma)))

    def _inflation(self, kind: str, *identity) -> float:
        """Deterministic profiler-overhead factor: a per-(GPU, class)
        systematic component times a per-operator component."""
        if not self.profiler_overhead:
            return 1.0
        kind_part = _kind_inflation(self.gpu.name, kind)
        op_part = self._lognormal(
            PROFILER_INFLATION_SIGMA, "profiler-op", self.gpu.name, *identity
        )
        return PROFILER_INFLATION_MEAN * kind_part * op_part

    def trace_inference(self, model: ModelGraph, batch_size: int,
                        run: int = PROFILED_RUN) -> Trace:
        """Profile one *inference* pass (forward only, no gradients).

        Li's Model originally targeted DNN inference; a forward-only trace
        drives the same extrapolators (replicated, sharded, or pipelined
        serving) with the backward/optimizer stages simply absent.
        """
        return self.trace(model, batch_size, run,
                          include_backward=False, include_optimizer=False)

    def trace(self, model: ModelGraph, batch_size: int,
              run: int = PROFILED_RUN, include_backward: bool = True,
              include_optimizer: bool = True) -> Trace:
        """Profile one training iteration of *model* at *batch_size*."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if include_optimizer and not include_backward:
            raise ValueError("optimizer ops require backward ops")
        trace = Trace(
            model_name=model.name,
            gpu_name=self.gpu.name,
            batch_size=batch_size,
            seq_len=model.default_seq_len,
        )
        next_id = 0

        def new_tensor(dims, category) -> int:
            nonlocal next_id
            trace.add_tensor(TensorRecord(next_id, tuple(dims), "float32", category))
            next_id += 1
            return next_id - 1

        layers = model.layers
        # Activations flowing through the chain.
        act_ids = []
        weight_ids = {}
        current = new_tensor((batch_size, layers[0].input_elems), "input")
        for layer in layers:
            inputs = [current]
            if layer.params > 0:
                wid = new_tensor((layer.params,), "weight")
                weight_ids[layer.name] = wid
                inputs.append(wid)
            out = new_tensor((batch_size, layer.output_elems), "activation")
            act_ids.append((current, out))
            duration = self.gpu_model.measured_layer_time(
                layer, batch_size, "fwd", 1, run
            ) * self._inflation(layer.kind, layer.name, "fwd")
            trace.add_operator(
                OperatorRecord(
                    name=f"{layer.name}#fwd",
                    kind=layer.kind,
                    layer=layer.name,
                    phase="forward",
                    duration=duration,
                    flops=layer.fwd_flops * batch_size,
                    inputs=tuple(inputs),
                    outputs=(out,),
                )
            )
            current = out

        if not include_backward:
            return trace

        # Backward pass, reverse order.  The incoming gradient of the loss
        # has the shape of the final output.
        grad_out = new_tensor((batch_size, layers[-1].output_elems), "activation")
        grad_ids = {}
        for layer, (in_act, out_act) in zip(reversed(layers), reversed(act_ids)):
            inputs = [grad_out, in_act]
            outputs = []
            grad_in = new_tensor((batch_size, layer.input_elems), "activation")
            outputs.append(grad_in)
            if layer.params > 0:
                inputs.append(weight_ids[layer.name])
                gid = new_tensor((layer.params,), "gradient")
                grad_ids[layer.name] = gid
                outputs.append(gid)
            duration = self.gpu_model.measured_layer_time(
                layer, batch_size, "bwd", 1, run
            ) * self._inflation(layer.kind, layer.name, "bwd")
            trace.add_operator(
                OperatorRecord(
                    name=f"{layer.name}#bwd",
                    kind=layer.kind,
                    layer=layer.name,
                    phase="backward",
                    duration=duration,
                    flops=layer.bwd_flops * batch_size,
                    inputs=tuple(inputs),
                    outputs=tuple(outputs),
                )
            )
            grad_out = grad_in

        # Optimizer step: one parameter-update operator per weight tensor.
        for layer in layers:
            if not include_optimizer:
                break
            if layer.params == 0:
                continue
            wid = weight_ids[layer.name]
            gid = grad_ids[layer.name]
            duration = self.gpu_model.base_time(
                "elementwise", 2.0 * layer.params, 3.0 * layer.param_bytes
            ) * self.gpu_model.noise(layer.name, "opt", run) * self._inflation(
                "optimizer", layer.name, "opt"
            )
            trace.add_operator(
                OperatorRecord(
                    name=f"{layer.name}#opt",
                    kind="elementwise",
                    layer=layer.name,
                    phase="optimizer",
                    duration=duration,
                    flops=2.0 * layer.params,
                    inputs=(wid, gid),
                    outputs=(wid,),
                )
            )
        return trace


@functools.lru_cache(maxsize=None)
def _kind_inflation(gpu_name: str, kind: str) -> float:
    """The per-(GPU, class) component of :meth:`Tracer._inflation`, drawn
    once per pair: it depends on nothing else, and each draw seeds a
    fresh NumPy generator."""
    return Tracer._lognormal(PROFILER_KIND_SIGMA, "profiler-kind", gpu_name,
                             kind)
