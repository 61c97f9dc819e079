"""Figure 15 (case study §7.1): photonic-connected wafer-scale GPUs.

A 12x7 = 84-GPU wafer (A100-equivalent chiplets), data-parallel training
with a fixed small per-GPU batch (strong scaling — the regime where the
paper observes communication dominating).  Two interconnects:

* **electrical** — a 2-D mesh of wafer-scale electrical links; the
  AllReduce ring embeds along a snake order with one long ring-closing
  path (the asymmetric slow link TrioSim's flow model handles natively);
* **photonic** — the Lightmatter Passage circuit-switching model: 484 GB/s
  per established circuit, 20 ms link setup, 8 ports per GPU.

Claims to reproduce: communication dominates on the electrical wafer
(~92% of VGG-19's time in the paper), the optical network cuts
communication substantially (paper: roughly half), and communication
remains significant even with photonics (scalability is not fully
solved).  Simulation-only — there is no 84-GPU wafer to measure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.engine.engine import Engine
from repro.experiments.harness import (
    ExperimentResult,
    Row,
    figure_label,
    predict_many,
    trace_batch,
    trace_for,
)
from repro.network.photonic import PhotonicNetwork
from repro.network.topology import gpu_names, wafer_mesh

ROWS, COLS = 12, 7
NUM_GPUS = ROWS * COLS
PER_GPU_BATCH = 2

#: Electrical wafer link: die-to-die signaling across reticle boundaries.
ELECTRICAL_BANDWIDTH = 100e9
ELECTRICAL_LATENCY = 20e-6

#: Passage circuit parameters (paper §7.1).
PHOTONIC_BANDWIDTH = 484e9
PHOTONIC_SETUP_LATENCY = 20e-3
PHOTONIC_PORTS = 8
PHOTONIC_LINK_LATENCY = 15e-6

DEFAULT_MODELS = ["resnet50", "densenet121", "vgg16", "vgg19",
                  "gpt2", "bert", "llama-3.2-1b"]


def _photonic_factory(engine: Engine, _config) -> PhotonicNetwork:
    return PhotonicNetwork(
        engine, gpu_names(NUM_GPUS),
        bandwidth=PHOTONIC_BANDWIDTH,
        setup_latency=PHOTONIC_SETUP_LATENCY,
        ports_per_node=PHOTONIC_PORTS,
        link_latency=PHOTONIC_LINK_LATENCY,
    )


def _config(**fields) -> SimulationConfig:
    return SimulationConfig(
        parallelism="ddp",
        num_gpus=NUM_GPUS,
        batch_size=PER_GPU_BATCH,
        gpu="A100",
        # One fused AllReduce after backward: the wafer case study models
        # plain data-parallel synchronization, not DDP bucketing.
        overlap=False,
        **fields,
    )


def run(models: Optional[List[str]] = None, quick: bool = False,
        runs: int = 1) -> ExperimentResult:
    """Reproduce Figure 15 (``runs`` accepted for API symmetry)."""
    models = models or (["vgg19", "resnet50"] if quick else DEFAULT_MODELS)
    result = ExperimentResult(
        "fig15",
        "Wafer-scale 84-GPU data parallelism: electrical vs photonic",
    )
    comm_reduction = {}
    for model_name in models:
        trace = trace_for(model_name, "A100", trace_batch(model_name))
        comm = {}
        # The electrical wafer is a topology graph and runs through the
        # sweep service; the photonic model plugs into TrioSim directly.
        electrical, = predict_many(trace, [_config(topology=wafer_mesh(
            ROWS, COLS, ELECTRICAL_BANDWIDTH, ELECTRICAL_LATENCY))])
        photonic = TrioSim(trace, _config(), record_timeline=False,
                           network_factory=_photonic_factory).run()
        for network, res in (("electrical", electrical),
                             ("photonic", photonic)):
            # Wall-clock view, like the paper's stacked bars: compute is
            # one GPU's busy time; communication is everything else.
            compute_wall = max(res.per_gpu_busy.values())
            comm_wall = max(res.total_time - compute_wall, 0.0)
            comm[network] = comm_wall
            result.add(Row(
                label=f"{figure_label(model_name)}/{network}",
                measured=None,
                predicted=res.total_time,
                detail={
                    "compute": compute_wall,
                    "comm": comm_wall,
                    "comm_ratio": comm_wall / res.total_time,
                },
            ))
        if comm["photonic"] > 0:
            comm_reduction[model_name] = comm["electrical"] / comm["photonic"]
    vgg_row = next((r for r in result.rows if r.label == "VGG-19/electrical"), None)
    vgg_share = vgg_row.detail["comm_ratio"] if vgg_row else float("nan")
    result.notes = (
        f"VGG-19 electrical comm share {vgg_share * 100:.1f}% (paper 92.21%); "
        "photonic comm reduction "
        + ", ".join(f"{m}: {x:.2f}x" for m, x in comm_reduction.items())
        + " (paper: nearly half)"
    )
    return result
