#!/usr/bin/env python
"""Custom and asymmetric networks: the flexibility the paper highlights.

Three scenarios on the same ResNet-50 DDP workload:

1. A standard NVSwitch-style crossbar.
2. An *asymmetric* ring where one link is 8x slower than the rest — the
   configuration the paper calls out as "challenging to model and
   evaluate in AstraSim and DistSim" but natural here: just edit the
   topology graph's edge attributes.
3. A drop-in photonic circuit-switching network (the §7.1 case-study
   model) via ``TrioSim(network_factory=)`` — no extrapolator changes.

Run:  python examples/custom_network.py
"""

from repro import PhotonicNetwork, SimulationConfig, Tracer, TrioSim, get_gpu, get_model
from repro.network.topology import gpu_names, ring

NUM_GPUS = 4
LINK_BW = 234e9


def simulate(trace, label, network_factory=None, **config_fields):
    config = SimulationConfig(parallelism="ddp", num_gpus=NUM_GPUS, **config_fields)
    result = TrioSim(trace, config, record_timeline=False,
                     network_factory=network_factory).run()
    print(
        f"  {label:<28} {result.total_time * 1e3:8.2f} ms "
        f"(comm busy {result.communication_time * 1e3:7.2f} ms)"
    )
    return result


def main() -> None:
    trace = Tracer(get_gpu("A100")).trace(get_model("resnet50"), 128)
    print(f"ResNet-50 DDP on {NUM_GPUS} GPUs, one trace, three networks:\n")

    # 1. NVSwitch crossbar.
    simulate(trace, "NVSwitch crossbar",
             topology="switch", link_bandwidth=LINK_BW, link_latency=1.2e-6)

    # 2. Asymmetric ring: degrade one link by editing the graph directly.
    degraded = ring(NUM_GPUS, LINK_BW, latency=1.5e-6)
    degraded["gpu0"]["gpu1"]["bandwidth"] = LINK_BW / 8
    simulate(trace, "ring, one link 8x slower", topology=degraded)

    # 3. Photonic circuit switching, swapped in via the factory hook.
    def photonic_factory(engine, _config):
        return PhotonicNetwork(
            engine, gpu_names(NUM_GPUS), bandwidth=484e9,
            setup_latency=20e-3, ports_per_node=8,
        )

    simulate(trace, "photonic (Passage-style)", network_factory=photonic_factory)

    print(
        "\nThe asymmetric ring slows the whole AllReduce to its weakest "
        "link; the photonic run pays circuit setup once, then flies."
    )


if __name__ == "__main__":
    main()
