# Convenience targets for the reproduction workflow.  Every target runs
# from a checkout: the package is imported from src/, ahead of any
# PYTHONPATH already set.

export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast qa campaign coverage bench-ledger perf-gate bench-smoke examples fig1 outputs trace-demo serve-demo chaos chaos-net fleet-demo clean

install:
	pip install -e .

# tests/test_chaos.py runs the seeded chaos drill (DpuDeath +
# TaskletStall + mid-run crash/resume) as part of the default suite;
# `make chaos` replays the same scenario through the installed CLI.
test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

# Seeded differential-verification sweep (see docs/testing.md): every
# kernel answer checked against WFA + Gotoh + Myers oracles, the report
# schema-validated, plus a fault-injected rerun that must still agree.
qa:
	HYPOTHESIS_PROFILE=ci python -m repro.cli qa \
		--trials 200 --seed 42 --report out/qa/report.jsonl
	HYPOTHESIS_PROFILE=ci python -m repro.cli qa \
		--trials 50 --seed 42 --kill-dpu 1 --report out/qa/report-faults.jsonl

# Seeded ablation x chaos campaign (see docs/campaigns.md): the full
# standard ablation vocabulary crossed with the standard fault grid,
# every cell run in parallel on the virtual clock, the evidence report
# (schema repro.qa.campaign/v1) schema-validated with every delta
# recomputed, and the structured event log written alongside.  The
# report is byte-identical across reruns and across --workers settings.
campaign:
	mkdir -p out/campaign
	python -m repro.cli campaign \
		--pairs 48 --seed 42 --workers 2 \
		--report out/campaign/report.jsonl \
		--events-out out/campaign/events.jsonl
	python -c "from repro.qa.campaign import validate_campaign_report; \
		s = validate_campaign_report('out/campaign/report.jsonl'); \
		print(f\"campaign OK: {s['cells']} cells, \" \
		      f\"oracle {s['oracle_ok']}/{s['oracle_checked']}, \" \
		      f\"{s['resumes_identical']}/{s['resumes_checked']} resumes \" \
		      f\"byte-identical\")"

# Coverage gate over the fault + QA subsystems and the kernel's
# metadata charge (kernel, DMA engine, allocator).  pytest-cov is not part
# of the baked toolchain everywhere, so the gate degrades to a plain run
# (with a visible notice) when the plugin is missing rather than failing
# the build on a tooling gap.
coverage:
	@if python -c "import pytest_cov" 2>/dev/null; then \
		python -m pytest tests/test_pim_faults.py \
			tests/test_qa_oracle.py tests/test_qa_cli.py \
			tests/test_qa_differential.py tests/test_scheduler_stateful.py \
			tests/test_pim_health.py tests/test_pim_journal.py \
			tests/test_pim_fleet.py tests/test_campaign.py \
			tests/test_campaign_report.py tests/test_pim_transport.py \
			tests/test_transport_stateful.py tests/test_pim_staging.py \
			--cov=repro.pim.faults --cov=repro.qa \
			--cov=repro.pim.health --cov=repro.pim.journal \
			--cov=repro.pim.fleet --cov=repro.pim.ablation \
			--cov=repro.pim.transport --cov=repro.pim.kernel \
			--cov=repro.pim.dma --cov=repro.pim.allocator \
			--cov-report=term-missing --cov-fail-under=85; \
	else \
		echo "pytest-cov not installed; running the suite without the gate"; \
		python -m pytest tests/test_pim_faults.py \
			tests/test_qa_oracle.py tests/test_qa_cli.py \
			tests/test_qa_differential.py tests/test_scheduler_stateful.py \
			tests/test_pim_health.py tests/test_pim_journal.py \
			tests/test_pim_fleet.py tests/test_campaign.py \
			tests/test_campaign_report.py tests/test_pim_transport.py \
			tests/test_transport_stateful.py tests/test_pim_staging.py -q; \
	fi

# Perf ledger (see docs/perf-ledger.md): run every registered scenario
# at the CI-safe quick profile on the modeled clock — each one identity-
# checks the claim it benchmarks — and append schema-versioned records
# to BENCH_ledger.json.
bench-ledger:
	python -m repro.cli bench run --profile quick \
		--ledger BENCH_ledger.json

# The CI regression gate: diff the latest ledger record per scenario
# against the committed baseline; exits non-zero (naming the scenario
# and metric) past a >10% modeled-throughput drop or modeled-latency
# rise.  Runs next to `make qa`.
perf-gate:
	python -m repro.cli bench compare \
		--ledger BENCH_ledger.json --baseline BENCH_baseline.json \
		--max-drop 0.10 --max-rise 0.10

# Crash smoke of the host-wall benchmark (see docs/perf-ledger.md): every
# perfbench workload at seeds 1 and 9001 for 2 s each.  Fails on a
# non-zero exit, a last stdout line that is not JSON, or a run whose
# result says "correct": false.  No tier-1 test runs perfbench.  Results
# land in out/bench-smoke/; nothing under perfbench/ is written.
bench-smoke:
	mkdir -p out/bench-smoke
	for workload in paper_batch long_reads serve_fleet; do \
		for seed in 1 9001; do \
			out=out/bench-smoke/$$workload-$$seed.json; \
			echo "== perfbench $$workload --seed $$seed"; \
			PYTHONDONTWRITEBYTECODE=1 python perfbench/run.py \
				--workload $$workload --seed $$seed --seconds 2 > $$out || exit 1; \
			python -c "import json, sys; \
				result = json.loads(open(sys.argv[1]).read().splitlines()[-1]); \
				print('correct:', result['correct']); \
				sys.exit(result['correct'] is not True)" $$out || exit 1; \
		done; \
	done

examples:
	for ex in examples/*.py; do \
		echo "== $$ex"; \
		python $$ex $$( [ "$$ex" = "examples/fig1_reproduction.py" ] && echo --quick ) > /dev/null || exit 1; \
	done

fig1:
	python examples/fig1_reproduction.py

# Regenerate the nine committed tables under benchmarks/out/, each with
# the command that tests/test_committed_outputs.py pins it to.
outputs:
	python -m repro.cli fig1 > benchmarks/out/fig1.txt
	python -m repro.cli sweep tasklets > benchmarks/out/tasklet_sweep.txt
	python -m repro.cli sweep allocator > benchmarks/out/allocator_policy.txt
	python -m repro.cli sweep error-rate > benchmarks/out/error_rate_sweep.txt
	python -m repro.cli sweep read-length > benchmarks/out/read_length_sweep.txt
	python -m repro.cli sweep dpus > benchmarks/out/dpu_count_sweep.txt
	python -m repro.cli sweep algos > benchmarks/out/algo_comparison.txt
	python -m repro.cli sweep staging > benchmarks/out/staging_chunk.txt
	python -m repro.cli sweep sensitivity > benchmarks/out/sensitivity.txt

trace-demo:
	mkdir -p out/trace-demo
	python -m repro.cli generate --pairs 64 --length 80 \
		--error-rate 0.03 --seed 7 -o out/trace-demo/reads.seq
	python -m repro.cli pim-align -i out/trace-demo/reads.seq \
		--dpus 8 --tasklets 4 --workers 2 \
		--metrics-out out/trace-demo/metrics.prom \
		--trace-out out/trace-demo/trace.json
	python -c "import json; \
		from repro.obs.export import validate_chrome_trace; \
		n = validate_chrome_trace(json.load(open('out/trace-demo/trace.json'))); \
		print(f'trace OK: {n} duration events -> open out/trace-demo/trace.json in chrome://tracing')"

# Deterministic 200-request replay through the alignment service (see
# docs/serving.md): virtual-clock bursty arrivals, result cache on, a
# DPU death injected into every batch — the JSONL latency report is
# schema-validated and every summary figure recomputed from the
# per-request records.  The same replay runs under pytest in
# tests/test_serve_cli.py.
serve-demo:
	mkdir -p out/serve-demo
	python -m repro.cli loadgen \
		--requests 200 --rate 10000 --process bursty --length 10 \
		--seed 5 --cache 64 --dpus 4 --tasklets 4 --kill-dpu 1 \
		--report out/serve-demo/load.jsonl \
		--metrics-out out/serve-demo/serve.prom
	python -c "from repro.serve import validate_load_report; \
		s = validate_load_report('out/serve-demo/load.jsonl'); \
		print(f\"report OK: {s['completed']} completed, \" \
		      f\"{s['cached_pairs']} cached pairs, \" \
		      f\"p99 {s['latency_p99_s']*1e3:.2f} ms\")"

# Seeded chaos drill (see docs/resilience.md): a persistent DPU death
# plus a first-attempt tasklet stall under the circuit breaker, a
# mid-run crash (journal truncated at a record boundary) resumed with
# --resume, and the same fault plan replayed through the serve path
# with CPU fallback.  The rebuilt journal must be byte-identical to the
# uninterrupted one, and both the repro.pim.journal/v1 journal and the
# repro.serve.load/v1 report are schema-validated.  The same scenario
# runs under pytest in tests/test_chaos.py (part of `make test`).
chaos:
	mkdir -p out/chaos
	python -m repro.cli generate --pairs 96 --length 48 \
		--error-rate 0.03 --seed 13 -o out/chaos/reads.seq
	python -m repro.cli pim-align -i out/chaos/reads.seq \
		--dpus 4 --tasklets 4 --pairs-per-round 24 \
		--kill-dpu 1 --stall-dpu 2 --breaker \
		--journal out/chaos/run.jsonl
	head -n 3 out/chaos/run.jsonl > out/chaos/crashed.jsonl
	python -m repro.cli pim-align -i out/chaos/reads.seq \
		--dpus 4 --tasklets 4 --pairs-per-round 24 \
		--kill-dpu 1 --stall-dpu 2 --breaker \
		--journal out/chaos/crashed.jsonl --resume
	cmp out/chaos/run.jsonl out/chaos/crashed.jsonl
	python -m repro.cli loadgen \
		--requests 120 --rate 8000 --length 10 --seed 13 \
		--dpus 4 --tasklets 4 --kill-dpu 1 --stall-dpu 2 --breaker \
		--fallback-threshold 0.9 --report out/chaos/load.jsonl
	python -c "from repro.pim.journal import RunJournal; \
		from repro.serve import validate_load_report; \
		j = RunJournal.load('out/chaos/crashed.jsonl'); \
		s = validate_load_report('out/chaos/load.jsonl'); \
		print(f\"chaos OK: journal {j.header['schema']} with \" \
		      f\"{len(j.rounds())} rounds resumed byte-identically, \" \
		      f\"load report valid ({s['completed']} completed)\")"

# Transport chaos drill (see docs/fleet.md and docs/resilience.md): the
# same workload runs through a 4-shard fleet twice — once over calm
# links, once under a seeded NetworkFaultPlan (lossy + duplicating +
# delayed + reordering links and a finite partition) with hedged
# work-stealing — and the two result TSVs must be byte-identical: the
# wire is invisible in the data.  The same plan then replays through
# the serve path; the load report and the structured event log (which
# must carry net_drop / net_redeliver / net_partition events) are both
# schema-validated.  The same claims run under pytest in
# tests/test_pim_transport.py (part of `make test`).
chaos-net:
	mkdir -p out/chaos-net
	python -m repro.cli generate --pairs 256 --length 48 \
		--error-rate 0.03 --seed 29 -o out/chaos-net/reads.seq
	python -c "import json; \
		from repro.pim.transport import LinkDelay, LinkDrop, \
			LinkDuplicate, LinkReorder, NetworkFaultPlan, Partition; \
		plan = NetworkFaultPlan(seed=29, \
			drops=tuple(LinkDrop(shard_id=s, p=0.2) for s in (1, 2, 3)), \
			duplicates=(LinkDuplicate(shard_id=2, p=0.25),), \
			delays=(LinkDelay(shard_id=1, delay_s=1e-4, jitter_s=5e-5),), \
			reorders=(LinkReorder(shard_id=2, p=0.2),), \
			partitions=(Partition(start_s=0.0, end_s=0.03, shard_ids=(3,)),)); \
		json.dump(plan.to_dict(), open('out/chaos-net/plan.json', 'w'), indent=2)"
	python -m repro.cli pim-align -i out/chaos-net/reads.seq \
		--dpus 4 --tasklets 4 --shards 4 --pairs-per-round 32 \
		-o out/chaos-net/calm.tsv
	python -m repro.cli pim-align -i out/chaos-net/reads.seq \
		--dpus 4 --tasklets 4 --shards 4 --pairs-per-round 32 \
		--net-plan @out/chaos-net/plan.json --hedge \
		-o out/chaos-net/lossy.tsv
	cmp out/chaos-net/calm.tsv out/chaos-net/lossy.tsv
	python -m repro.cli loadgen \
		--requests 160 --rate 8000 --length 10 --seed 29 \
		--dpus 4 --tasklets 4 --shards 4 --pairs-per-round 2 \
		--net-plan @out/chaos-net/plan.json --hedge \
		--report out/chaos-net/load.jsonl \
		--events-out out/chaos-net/events.jsonl
	python -c "import json; \
		from repro.obs.events import validate_event_log; \
		from repro.serve import validate_load_report; \
		s = validate_load_report('out/chaos-net/load.jsonl'); \
		records = [json.loads(l) for l in open('out/chaos-net/events.jsonl')]; \
		validate_event_log(records); \
		kinds = {r.get('kind') for r in records[1:]}; \
		missing = {'net_drop', 'net_redeliver', 'net_partition'} - kinds; \
		assert not missing, f'net events missing from the log: {missing}'; \
		print(f\"chaos-net OK: lossy TSV byte-identical to calm, \" \
		      f\"load report valid ({s['completed']} completed), \" \
		      f\"{len(records) - 1} events with net fault coverage\")"

# Sharded-fleet chaos drill (see docs/fleet.md): a 4-shard fleet run
# with a persistent DPU death under per-shard circuit breakers,
# journaled to a federated journal directory (per-shard journals +
# repro.pim.fleet/v1 manifest); a mid-run crash is simulated by
# truncating one shard's journal at a record boundary and deleting
# another's outright, then resumed with --resume at a different worker
# count (the fingerprint excludes workers and shards).  Every rebuilt
# journal file must be byte-identical to the uninterrupted run's; a
# fresh run with the DPU jobs in a process pool (--workers 2) must
# record the inline run's run manifest and trace every shard's DPUs;
# and the same fault plan replays through a 4-shard serve path with a
# schema-validated load report.  The same scenario runs under pytest in
# tests/test_pim_fleet.py (part of `make test`).
fleet-demo:
	rm -rf out/fleet
	mkdir -p out/fleet
	python -m repro.cli generate --pairs 512 --length 48 \
		--error-rate 0.03 --seed 21 -o out/fleet/reads.seq
	python -m repro.cli pim-align -i out/fleet/reads.seq \
		--dpus 4 --tasklets 4 --shards 4 --pairs-per-round 32 \
		--kill-dpu 1 --breaker --journal out/fleet/journal \
		--metrics-out out/fleet/inline.json
	cp -r out/fleet/journal out/fleet/crashed
	head -n 2 out/fleet/crashed/shard-001.jsonl > out/fleet/crashed/tmp \
		&& mv out/fleet/crashed/tmp out/fleet/crashed/shard-001.jsonl
	rm out/fleet/crashed/shard-003.jsonl
	python -m repro.cli pim-align -i out/fleet/reads.seq \
		--dpus 4 --tasklets 4 --shards 4 --pairs-per-round 32 \
		--kill-dpu 1 --breaker --workers 2 \
		--journal out/fleet/crashed --resume
	for f in manifest.json shard-000.jsonl shard-001.jsonl \
		shard-002.jsonl shard-003.jsonl; do \
		cmp out/fleet/journal/$$f out/fleet/crashed/$$f || exit 1; done
	python -m repro.cli pim-align -i out/fleet/reads.seq \
		--dpus 4 --tasklets 4 --shards 4 --pairs-per-round 32 \
		--kill-dpu 1 --breaker --workers 2 \
		--metrics-out out/fleet/pool.json --trace-out out/fleet/pool-trace.json
	python -m repro.cli loadgen \
		--requests 200 --rate 8000 --length 10 --seed 21 \
		--dpus 4 --tasklets 4 --shards 4 --kill-dpu 1 --breaker \
		--report out/fleet/load.jsonl --metrics-out out/fleet/metrics.prom \
		--events-out out/fleet/events.jsonl --trace-out out/fleet/trace.json
	python -c "import json; \
		from repro.obs.events import validate_event_log; \
		from repro.obs.export import validate_chrome_trace; \
		from repro.pim.fleet import FleetCoordinator; \
		from repro.serve import validate_load_report; \
		m = FleetCoordinator.load_manifest('out/fleet/crashed'); \
		runs = json.load(open('out/fleet/inline.json'))['runs']; \
		assert runs, 'no runs in the inline run manifest'; \
		assert json.load(open('out/fleet/pool.json'))['runs'] == runs, \
			'pooled shards lost their runs'; \
		pool = json.load(open('out/fleet/pool-trace.json')); \
		validate_chrome_trace(pool); \
		pool_shards = {(e['pid'] - 1) // 4 for e in pool['traceEvents'] \
			if e['ph'] == 'X' and e['pid']}; \
		assert pool_shards == {0, 1, 2, 3}, f'pooled trace shards {pool_shards}'; \
		s = validate_load_report('out/fleet/load.jsonl'); \
		prom = open('out/fleet/metrics.prom').read().splitlines(); \
		assert any(l.startswith('pim_') for l in prom), 'no pim_ series'; \
		validate_event_log('out/fleet/events.jsonl'); \
		ev = [json.loads(l) for l in open('out/fleet/events.jsonl')]; \
		breakers = sum(r.get('kind') == 'breaker' for r in ev); \
		assert breakers, 'no breaker event in the federated log'; \
		doc = json.load(open('out/fleet/trace.json')); \
		validate_chrome_trace(doc); \
		dpus = {e['pid'] for e in doc['traceEvents'] if e['ph'] == 'X'} - {0}; \
		assert dpus, 'no DPU processes in the trace'; \
		print(f\"fleet OK: {m['schema']} manifest, {m['shards']} shards, \" \
		      f\"{len(m['placements'])} rounds resumed byte-identically, \" \
		      f\"{len(runs)} runs identical inline and pooled, \" \
		      f\"load report valid ({s['completed']} completed), \" \
		      f\"{breakers} breaker event(s), {len(dpus)} DPU trace processes\")"

# Untracked caches and build output only; never a committed file.
clean:
	rm -rf .pytest_cache .hypothesis out build src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
