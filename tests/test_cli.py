"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.data.seqio import read_seq


@pytest.fixture
def workload(tmp_path):
    path = tmp_path / "reads.seq"
    rc = main(
        [
            "generate",
            "--pairs",
            "12",
            "--length",
            "60",
            "--error-rate",
            "0.04",
            "--seed",
            "3",
            "-o",
            str(path),
        ]
    )
    assert rc == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_metric_choices(self):
        args = build_parser().parse_args(["align", "-i", "x", "--metric", "affine2p"])
        assert args.metric == "affine2p"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["align", "-i", "x", "--metric", "hamming"])


class TestGenerate:
    def test_writes_seq(self, workload):
        pairs = read_seq(workload)
        assert len(pairs) == 12
        assert all(len(p.pattern) == 60 for p in pairs)

    def test_writes_fasta(self, tmp_path, capsys):
        path = tmp_path / "reads.fa"
        rc = main(
            ["generate", "--pairs", "3", "--length", "20", "--format", "fasta",
             "-o", str(path)]
        )
        assert rc == 0
        assert path.read_text().startswith(">pair0/1")
        assert "wrote 3 pairs" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.seq"
        b = tmp_path / "b.seq"
        for p in (a, b):
            main(["generate", "--pairs", "5", "--seed", "9", "-o", str(p)])
        assert a.read_text() == b.read_text()


class TestAlign:
    def test_stdout_tsv(self, workload, capsys):
        rc = main(["align", "-i", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "pair\tscore\tcigar"
        assert len(lines) == 13
        idx, score, cigar = lines[1].split("\t")
        assert idx == "0" and int(score) >= 0 and cigar != "."

    def test_score_only(self, workload, capsys):
        rc = main(["align", "-i", str(workload), "--score-only"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.split("\t")[2] == "." for line in lines[1:])

    def test_output_file(self, workload, tmp_path, capsys):
        out = tmp_path / "result.tsv"
        rc = main(["align", "-i", str(workload), "-o", str(out)])
        assert rc == 0
        assert out.read_text().startswith("pair\tscore")
        assert "aligned 12 pairs" in capsys.readouterr().out

    def test_edit_metric_scores(self, workload, capsys):
        rc = main(["align", "-i", str(workload), "--metric", "edit"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        # edit budget is 0.04 * 60 ~ 2 edits per pair
        assert all(int(line.split("\t")[1]) <= 3 for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["align", "-i", "{missing}"],
            ["pim-align", "-i", "{missing}"],
            ["stats", "-i", "{missing}"],
            ["serve", "-i", "{missing}"],
            ["map", "--reference", "{missing}", "--reads", "r.fa", "-o", "o.paf"],
            ["generate", "-o", "{missing}/x.seq"],
            ["align", "-i", "{dir}"],
        ],
        ids=["align", "pim-align", "stats", "serve", "map", "generate", "directory"],
    )
    def test_missing_input_is_clean_error(self, argv, tmp_path, capsys):
        paths = {"missing": str(tmp_path / "nope"), "dir": str(tmp_path)}
        culprit = next(arg for arg in argv if "{" in arg).format(**paths)
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert culprit in err


class TestPimAlign:
    def test_runs_and_reports(self, workload, capsys):
        rc = main(
            ["pim-align", "-i", str(workload), "--dpus", "4", "--tasklets", "4",
             "--max-edits", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated PIM run" in out
        assert "kernel" in out
        assert "throughput" in out

    def test_wram_policy(self, workload, capsys):
        rc = main(
            ["pim-align", "-i", str(workload), "--dpus", "2", "--tasklets", "2",
             "--policy", "wram", "--max-edits", "3"]
        )
        assert rc == 0
        assert "wram" in capsys.readouterr().out

    def test_reproerror_becomes_exit_code(self, workload, capsys):
        # 24 tasklets under the wram policy cannot be admitted -> clean error
        rc = main(
            ["pim-align", "-i", str(workload), "--dpus", "2", "--tasklets", "24",
             "--policy", "wram", "--max-edits", "6"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.seq"
        empty.write_text("")
        rc = main(["pim-align", "-i", str(empty)])
        assert rc == 1

    def test_inferred_budget_overflow_names_the_flags(self, tmp_path, capsys):
        reads = tmp_path / "long.seq"
        assert main(["generate", "--pairs", "2", "--length", "1000",
                     "--error-rate", "0.02", "-o", str(reads)]) == 0
        capsys.readouterr()
        argv = ["pim-align", "-i", str(reads), "--dpus", "4", "--tasklets", "16"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "MRAM bank holds" in err
        assert "--max-edits was inferred as 100" in err
        assert "16 --tasklets" in err
        # an explicit budget is the caller's own: the plain error
        assert main([*argv, "--max-edits", "100"]) == 1
        err = capsys.readouterr().err
        assert "MRAM bank holds" in err and "inferred" not in err


class TestPimAlignTelemetry:
    def _run(self, workload, tmp_path, *extra):
        return main(
            ["pim-align", "-i", str(workload), "--dpus", "4", "--tasklets", "2",
             "--max-edits", "3", *extra]
        )

    def test_trace_out_is_valid_chrome_trace(self, workload, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "trace.json"
        rc = self._run(workload, tmp_path, "--trace-out", str(trace))
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) > 0
        # per-DPU processes and tasklet lanes made it into the export
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1, 2, 3, 4}  # host + 4 DPUs
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        assert "telemetry reconciled" in out

    def test_metrics_out_json(self, workload, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        rc = self._run(workload, tmp_path, "--metrics-out", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.obs/v1"
        assert doc["runs"][0]["num_pairs"] == 12
        assert "wrote metrics" in capsys.readouterr().out

    def test_metrics_out_prometheus(self, workload, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        rc = self._run(workload, tmp_path, "--metrics-out", str(path))
        assert rc == 0
        text = path.read_text()
        assert "# TYPE pim_runs_total counter" in text
        assert 'pim_pairs_total{kind="align"} 12' in text

    def test_metrics_out_jsonl_manifest(self, workload, tmp_path, capsys):
        import json

        path = tmp_path / "runs.jsonl"
        rc = self._run(workload, tmp_path, "--metrics-out", str(path))
        assert rc == 0
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "run"
        assert lines[-1]["type"] == "summary"

    def test_both_flags_with_workers(self, workload, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = self._run(
            workload, tmp_path, "--workers", "2",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        )
        assert rc == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0
        assert json.loads(metrics.read_text())["schema"] == "repro.obs/v1"

    def test_no_flags_no_telemetry_output(self, workload, tmp_path, capsys):
        rc = self._run(workload, tmp_path)
        assert rc == 0
        assert "telemetry" not in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::repro.errors.DegradedCapacity")
class TestFederatedExports:
    """Every export covers every shard, at any shard count."""

    LOADGEN = [
        "loadgen", "--requests", "60", "--rate", "3000", "--length", "10",
        "--dpus", "4", "--shards", "2", "--breaker", "--kill-dpu", "1",
    ]

    def test_loadgen_prometheus_carries_shard_series(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(self.LOADGEN + ["--metrics-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert any(line.startswith("pim_runs_total") for line in lines)
        assert any(line.startswith("pim_breaker_transitions_total") for line in lines)

    def test_loadgen_event_log_carries_shard_breakers(self, tmp_path, capsys):
        import json

        from repro.obs.events import validate_event_log

        path = tmp_path / "events.jsonl"
        assert main(self.LOADGEN + ["--events-out", str(path)]) == 0
        validate_event_log(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        breakers = [r for r in records[1:] if r["kind"] == "breaker"]
        # global DPU 1 is shard 0's DPU 1
        assert breakers
        assert {(r["attrs"]["shard"], r["attrs"]["dpu"]) for r in breakers} == {(0, 1)}

    def test_two_shard_pim_align_trace_and_runs(self, workload, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(
            ["pim-align", "-i", str(workload), "--dpus", "4", "--tasklets", "2",
             "--max-edits", "3", "--shards", "2", "--pairs-per-round", "4",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) > 0
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == set(range(9))  # host + 2 shards x 4 DPUs
        # 12 pairs in 4-pair rounds: rounds 0 and 2 on shard 0, round 1 on 1
        runs = json.loads(metrics.read_text())["runs"]
        assert [(r["shard"], r["index"]) for r in runs] == [(0, 0), (0, 1), (1, 0)]
        assert "telemetry reconciled: 3 run(s)" in capsys.readouterr().out


class TestMap:
    @pytest.fixture
    def mapping_files(self, tmp_path):
        from repro.data.simulator import ReferenceSampler
        from repro.data.seqio import write_fasta

        sampler = ReferenceSampler(
            seed=13, reference_length=3000, read_length=60, error_rate=0.02
        )
        ref = tmp_path / "ref.fa"
        write_fasta(ref, [("contig1", sampler.reference)])
        reads = sampler.reads(6)
        reads_fa = tmp_path / "reads.fa"
        write_fasta(
            reads_fa,
            [(f"read{i}", r.sequence) for i, r in enumerate(reads)],
        )
        return ref, reads_fa, sampler, reads

    def test_maps_reads_to_paf(self, mapping_files, tmp_path, capsys):
        from repro.data.paf import read_paf

        ref, reads_fa, sampler, reads = mapping_files
        out = tmp_path / "out.paf"
        rc = main(
            ["map", "--reference", str(ref), "--reads", str(reads_fa),
             "--both-strands", "-o", str(out)]
        )
        assert rc == 0
        records = read_paf(out)
        assert len(records) == 6
        hits = 0
        for rec, read in zip(records, reads):
            assert rec.target_name == "contig1"
            if abs(rec.target_start - read.position) <= sampler.edit_budget + 1:
                hits += 1
            assert (rec.strand == "-") == read.reverse
        assert hits == 6

    def test_multi_record_reference_rejected(self, mapping_files, tmp_path, capsys):
        from repro.data.seqio import write_fasta

        _ref, reads_fa, _sampler, _reads = mapping_files
        bad_ref = tmp_path / "multi.fa"
        write_fasta(bad_ref, [("a", "ACGT"), ("b", "ACGT")])
        rc = main(
            ["map", "--reference", str(bad_ref), "--reads", str(reads_fa),
             "-o", str(tmp_path / "x.paf")]
        )
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    def test_empty_reads_rejected(self, mapping_files, tmp_path, capsys):
        ref, _reads, _sampler, _r = mapping_files
        empty = tmp_path / "none.fa"
        empty.write_text("")
        rc = main(
            ["map", "--reference", str(ref), "--reads", str(empty),
             "-o", str(tmp_path / "x.paf")]
        )
        assert rc == 1


class TestStats:
    def test_stats_report(self, workload, capsys):
        rc = main(["stats", "-i", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scores" in out and "identities" in out

    def test_stats_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "none.seq"
        empty.write_text("")
        rc = main(["stats", "-i", str(empty)])
        assert rc == 1


class TestSweep:
    def test_allocator_sweep_runs(self, capsys):
        rc = main(["sweep", "allocator"])
        assert rc == 0
        assert "allocator policy ablation" in capsys.readouterr().out
