"""Ext. J — calibration sensitivity of the headline ratios.

Perturbs each key model constant by 1.5x in both directions and checks
that (a) the qualitative conclusion — PIM beats the 56-thread CPU —
survives every perturbation, and (b) the kernel-side result is
insensitive to the DMA constants (it is instruction-throughput-bound at
16 tasklets), while the end-to-end ratio moves with the two anchored
quantities (transfer bandwidth, CPU effective bandwidth) as the
calibration note predicts.
"""

from conftest import emit

from repro.experiments.sensitivity import sensitivity_analysis


def test_sensitivity(benchmark):
    # the sweep's defaults: the same sampling as `repro sweep sensitivity`
    result = benchmark.pedantic(sensitivity_analysis, rounds=1, iterations=1)
    emit("sensitivity", result.report())

    assert result.all_pim_wins()
    by_label = {p.label: p for p in result.points}
    base = result.baseline
    # kernel speedup ~unchanged under DMA perturbations (instr-bound)
    for label in ("DMA streaming rate x1.5", "DMA streaming rate /1.5"):
        assert abs(by_label[label].kernel_speedup / base.kernel_speedup - 1) < 0.15
    # total speedup tracks transfer bandwidth strongly
    up = by_label["host transfer bandwidth x1.5"].total_speedup
    down = by_label["host transfer bandwidth /1.5"].total_speedup
    assert up > base.total_speedup > down
