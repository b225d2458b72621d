"""The committed tables under ``benchmarks/out/`` match a fresh run, and
hold the claims EXPERIMENTS.md draws from them.

Each case runs one ``repro sweep`` (or ``repro fig1``) at its defaults,
records the result the command prints, and compares stdout byte for byte
with the committed file, so a change that moves a modeled number cannot
land without regenerating the table (and the docs that quote it).  It
then asserts the table's claim on that same result: no sweep runs twice,
and every claim is checked at the committed sampling.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import fig1, sensitivity, sweeps
from repro.perf.calibration import PAPER_TARGETS

OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "out"

#: committed output name -> (the command that prints it, the module and
#: function the command calls for its result, the claim on that result)
CASES = {}


def table(name, argv, module, function):
    def register(claims):
        CASES[name] = (argv, module, function, claims)
        return claims

    return register


@table("tasklet_sweep", ["sweep", "tasklets"], sweeps, "tasklet_sweep")
def tasklet_claims(result):
    """Abl. B: the 11-stage pipeline needs >= 11 tasklets to saturate."""
    ks = result.series("kernel_s")
    # steep improvement up to the pipeline depth...
    assert ks[0] / ks[4] > 5.0  # 1T -> 11T
    # ...then saturation from 11 to 24 tasklets
    assert max(ks[4:]) / min(ks[4:]) < 1.35


@table("allocator_policy", ["sweep", "allocator"], sweeps, "allocator_policy_ablation")
def allocator_claims(result):
    """Abl. A: MRAM-resident metadata admits every tasklet and wins."""
    values = {r.label: r.values for r in result.rows}
    assert values["mram"]["max_tasklets"] == 24  # "unleash the maximum threads"
    assert values["wram"]["max_tasklets"] <= 6  # "sacrificing the number of threads"
    assert values["mram"]["kernel_s"] < values["wram"]["kernel_s"]


@table("error_rate_sweep", ["sweep", "error-rate"], sweeps, "error_rate_sweep")
def error_rate_claims(result):
    """Ext. D: kernel time grows super-linearly in E, transfers stay flat."""
    kernel = result.series("kernel_s")
    total = result.series("total_s")
    assert all(a < b for a, b in zip(kernel, kernel[1:]))
    # E 2% -> 8% (4x) costs more than 4x kernel time
    assert kernel[4] / kernel[1] > 4.0
    # total grows much slower than kernel
    assert total[-1] / total[0] < kernel[-1] / kernel[0]


@table("read_length_sweep", ["sweep", "read-length"], sweeps, "read_length_sweep")
def read_length_claims(result):
    """Ext. C: longer reads at a fixed error rate, fewer pairs/s."""
    pairs_per_s = result.series("pairs_per_s")
    assert all(a > b for a, b in zip(pairs_per_s, pairs_per_s[1:]))
    assert all(k > 0 for k in result.series("kernel_s"))


@table("dpu_count_sweep", ["sweep", "dpus"], sweeps, "dpu_count_sweep")
def dpu_count_claims(result):
    """Ext. G: kernel scales with DPUs, Total hits the transfer floor."""
    kernel = result.series("kernel_s")
    total = result.series("total_s")
    # 40x DPUs (64 -> 2560) -> more than 10x kernel gain
    assert kernel[0] / kernel[-1] > 10.0
    # total saturates well below the kernel gain
    assert total[0] / total[-1] < 0.5 * kernel[0] / kernel[-1]


@table("algo_comparison", ["sweep", "algos"], sweeps, "algorithm_comparison")
def algorithm_claims(result):
    """Ext. E: WFA's kernel beats banded DP on the DPU at every E."""
    for e in result.results:
        assert result.speedup(e) > 1.0


@table("staging_chunk", ["sweep", "staging"], sweeps, "staging_chunk_ablation")
def staging_claims(result):
    """Ext. I: chunked staging recovers the tasklets long reads lose."""
    rows = {r.label: r.values for r in result.rows}
    # the planner's own pick beats whole wavefronts on both counts
    assert rows["auto"]["tasklets"] > rows["whole"]["tasklets"]
    assert rows["auto"]["kernel_s"] < rows["whole"]["kernel_s"]
    # a fixed chunk admits more tasklets despite its extra DMA setups
    assert rows["256B"]["tasklets"] > rows["whole"]["tasklets"]
    assert rows["256B"]["kernel_s"] < rows["whole"]["kernel_s"]


@table("sensitivity", ["sweep", "sensitivity"], sensitivity, "sensitivity_analysis")
def sensitivity_claims(result):
    """Ext. J: PIM wins under every perturbation; the kernel ratio is
    instruction-bound, the Total ratio tracks transfer bandwidth."""
    assert result.all_pim_wins()
    by_label = {p.label: p for p in result.points}
    base = result.baseline
    for label in ("DMA streaming rate x1.5", "DMA streaming rate /1.5"):
        assert abs(by_label[label].kernel_speedup / base.kernel_speedup - 1) < 0.15
    up = by_label["host transfer bandwidth x1.5"].total_speedup
    down = by_label["host transfer bandwidth /1.5"].total_speedup
    assert up > base.total_speedup > down


@table("fig1", ["fig1"], fig1, "run_fig1")
def fig1_claims(result):
    """Fig. 1, Obs. 1 and Obs. 2: who wins, by roughly what factor, and
    why the CPU stops scaling."""
    p2, p4 = result.panel(0.02), result.panel(0.04)
    assert p2.total_speedup > 1.0 and p4.total_speedup > 1.0
    assert 0.5 < p2.total_speedup / PAPER_TARGETS.total_speedup_e2 < 2.0
    assert 0.5 < p4.total_speedup / PAPER_TARGETS.total_speedup_e4 < 2.0
    assert 0.5 < p2.kernel_speedup / PAPER_TARGETS.kernel_speedup_e2 < 2.0
    assert 0.5 < p4.kernel_speedup / PAPER_TARGETS.kernel_speedup_e4 < 2.0
    assert p2.kernel_speedup > p4.kernel_speedup  # crossover direction
    for p in (p2, p4):
        assert [b.threads for b in p.cpu_curve] == [1, 2, 4, 8, 16, 32, 56]
        times = [b.seconds for b in p.cpu_curve]
        assert all(a > b for a, b in zip(times, times[1:]))
        assert times[0] / times[2] > 3.0  # near-linear 1 -> 4
        assert times[0] / times[3] > 4.0  # and still scaling to 8
        assert times[4] / times[6] < 1.5  # flat 16 -> 56
        # the paper's explanation: memory-bound from 8 threads on
        assert [b.bound for b in p.cpu_curve] == ["compute"] * 3 + ["memory"] * 4


@pytest.mark.parametrize("name", sorted(CASES))
def test_committed_sweep_output_is_current(name, capsys, monkeypatch):
    argv, module, function, claims = CASES[name]
    produce = getattr(module, function)
    results = []

    def recorded(*args, **kwargs):
        results.append(produce(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, function, recorded)
    assert main(argv) == 0
    assert capsys.readouterr().out == (OUT / f"{name}.txt").read_text()
    (result,) = results
    claims(result)
