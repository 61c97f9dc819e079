"""Benchmark: regenerate Figure 14 (simulator execution time).

Paper claim: every DDP-on-P2 simulation completes within seconds, and
wall time tracks the trace size.  This is the one benchmark where the
*benchmarked quantity itself* is the figure.
"""

from conftest import QUICK

from repro.experiments import fig14


def test_fig14_simulator_execution_time(benchmark, show):
    result = benchmark.pedantic(
        lambda: fig14.run(quick=QUICK), rounds=1, iterations=1
    )
    show(result.table())
    assert all(r.predicted < 30.0 for r in result.rows)
    # Wall time correlates with trace size: the biggest trace should not
    # be simulated faster than the smallest one by a wide margin.
    by_ops = sorted(result.rows, key=lambda r: r.detail["operators"])
    assert by_ops[-1].predicted > by_ops[0].predicted * 0.5

