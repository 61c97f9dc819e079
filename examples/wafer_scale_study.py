#!/usr/bin/env python
"""Wafer-scale design study (the paper's §7.1 case study, interactive).

Models an 84-GPU wafer (12x7 A100-class chiplets) training with data
parallelism, and compares an electrical 2-D mesh against a Passage-style
photonic interconnect — then goes one step beyond the paper and sweeps the
photonic port budget to show circuit churn appearing when ports run out.

Run:  python examples/wafer_scale_study.py
"""

from repro import PhotonicNetwork, SimulationConfig, Tracer, TrioSim, get_gpu, get_model
from repro.network.topology import gpu_names, wafer_mesh

ROWS, COLS = 12, 7
N = ROWS * COLS
PER_GPU_BATCH = 2


def _trace():
    return Tracer(get_gpu("A100")).trace(get_model("vgg19"), 128)


def _base_config(**fields):
    return SimulationConfig(
        parallelism="ddp", num_gpus=N, batch_size=PER_GPU_BATCH,
        overlap=False, **fields,
    )


def run_electrical(trace):
    config = _base_config(topology=wafer_mesh(ROWS, COLS, 100e9, 20e-6))
    result = TrioSim(trace, config, record_timeline=False).run()
    compute = max(result.per_gpu_busy.values())
    comm = result.total_time - compute
    print(
        f"  electrical mesh : {result.total_time * 1e3:8.2f} ms "
        f"(comm {comm * 1e3:7.2f} ms = {comm / result.total_time * 100:.0f}%)"
    )
    return result.total_time


def run_photonic(trace, ports):
    captured = {}

    def factory(engine, _config):
        net = PhotonicNetwork(
            engine, gpu_names(N), bandwidth=484e9,
            setup_latency=20e-3, ports_per_node=ports, link_latency=15e-6,
        )
        captured["net"] = net
        return net

    result = TrioSim(trace, _base_config(), record_timeline=False,
                     network_factory=factory).run()
    net = captured["net"]
    compute = max(result.per_gpu_busy.values())
    comm = result.total_time - compute
    print(
        f"  photonic, {ports} ports: {result.total_time * 1e3:8.2f} ms "
        f"(comm {comm * 1e3:7.2f} ms, circuits up {net.circuits_established}, "
        f"torn down {net.circuits_torn_down})"
    )
    return result.total_time


def main() -> None:
    print(f"VGG-19 data parallelism on a {ROWS}x{COLS} = {N}-GPU wafer "
          f"(per-GPU batch {PER_GPU_BATCH}):\n")
    trace = _trace()
    electrical = run_electrical(trace)
    for ports in (8, 2, 1):
        run_photonic(trace, ports)
    print(
        "\nWith 8 ports the two ring-neighbour circuits persist across all "
        "AllReduce rounds; with 1 port every round alternates circuits, so "
        "setup latency (20 ms) dominates — port budget is a real design "
        "knob, which is exactly what this simulator is for."
    )


if __name__ == "__main__":
    main()
