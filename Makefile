# Verification entry points. `make verify` is the PR gate: the tier-1
# test suite, a 2-job smoke sweep through the parallel runner and a
# throwaway result cache, and a perf-harness smoke run that validates
# the BENCH document schema. See docs/PERFORMANCE.md. `make verify-faults`
# runs the full fault-injection battery, including the full-ledger soak
# cases tier-1 excludes. See docs/RELIABILITY.md. `make verify-service`
# runs the in-process service suites plus the TCP/loadgen soak battery
# (the only target that opens sockets). See docs/SERVICE.md.
# `make verify-sharding` runs the sharded-deployment suites (partitioner,
# coordinator, 1-shard decision equivalence, 4-shard replay) socket-free;
# SOAK=1 adds the multi-shard TCP soaks. See docs/SHARDING.md.
#
# `make bench` is the standing perf-regression harness: the
# pytest-benchmark suites (whole-run throughput + per-event
# microbenchmarks) followed by benchmarks/perf_report.py, which writes
# BENCH_<date>.json — the ledger perf PRs are judged against.
# `make bench-compare BASE=old.json HEAD=new.json` diffs two ledgers and
# fails on a >10% events/s drop — the review gate for perf PRs.
# `make kernel-smoke` pins the array kernel to the object reference path
# on a corpus slice (socket-free, seconds); part of `make verify`.
# `make bench-suite-smoke` runs every workload of the end-to-end
# benchmark (BENCHMARK.json, benchmarks/suite/) once, tiny, with its
# correctness checks, plus the suite's own smoke test; part of
# `make verify`. The measured run is `python3 benchmarks/suite/run.py`;
# `make bench-pair REF=<commit> WORKLOAD=<name> [PAIRS=10]` compares two
# commits on one workload by alternating runs (benchmarks/bench_pair.py).
# `make loc` prints total and code-only (no blanks, comments, docstrings)
# line counts per src/repro package — the one way a PR counts "smaller".

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify verify-faults verify-service verify-sharding verify-procs \
	test smoke kernel-smoke bench bench-smoke bench-suite-smoke \
	bench-pair bench-compare bench-all stress stress-smoke stress-procs loc

verify: test smoke kernel-smoke bench-smoke bench-suite-smoke stress-smoke \
	verify-service verify-sharding verify-procs

verify-faults:
	$(PYTHON) -m pytest -q -m faults

# The in-process service battery (no sockets): manager semantics, the
# park → wait → unpark battery (every kind of wait ended every way, the
# stale-exemption cycle, a violation that must not wedge the service), the
# constraint graph's property battery, the simulator differential, wire
# dispatch, the connection class fed raw bytes over an in-memory
# transport (framing, garbage, stalls, disconnects), and the loadgen
# driven through the in-process transport. The TCP soak runs only when
# SOAK=1.
verify-service:
	$(PYTHON) -m pytest -q tests/test_service_manager.py \
		tests/test_service_park.py tests/test_service_constraints.py \
		tests/test_service_differential.py tests/test_service_wire.py \
		tests/test_service_connection.py tests/test_service_loadgen.py
	$(if $(SOAK),$(PYTHON) -m pytest -q -m service_soak --override-ini \
		'addopts=-q',)

# The sharded-deployment battery (no sockets): partitioners, coordinator
# semantics (routing, gate, guard, cascades, cross-shard deadlock), the
# 1-shard decision-equivalence differential, and the 4-shard replay
# acceptance run. The multi-shard TCP soak runs only when SOAK=1.
verify-sharding:
	$(PYTHON) -m pytest -q tests/test_sharding_partitioner.py \
		tests/test_sharding_coordinator.py \
		tests/test_sharding_equivalence.py tests/test_sharding_replay.py
	$(if $(SOAK),$(PYTHON) -m pytest -q -m sharding_soak --override-ini \
		'addopts=-q',)

# The multi-process deployment battery: wire v2 negotiation and frames,
# the remote shard proxy over an in-memory transport, the supervisor with an
# injected spawner, and the orphan-hygiene regression (the one tier-1
# case that spawns real children, to prove none survive their parent).
# SOAK=1 adds real shard-host subprocesses over TCP: the five-way parity
# battery and a concurrent stress run through a 4-process deployment.
verify-procs:
	$(PYTHON) -m pytest -q tests/test_procs_wire.py \
		tests/test_procs_proxy.py tests/test_procs_supervisor.py \
		tests/test_procs_orphans.py
	$(if $(SOAK),$(PYTHON) -m pytest -q -m procs_soak --override-ini \
		'addopts=-q',)

test:
	$(PYTHON) -m pytest -x -q

smoke:
	CACHE_DIR=$$(mktemp -d) && \
	$(PYTHON) -m repro reproduce --jobs 2 --cache-dir $$CACHE_DIR && \
	$(PYTHON) -m repro reproduce --jobs 2 --cache-dir $$CACHE_DIR && \
	rm -rf $$CACHE_DIR

# Array-kernel equivalence smoke: representative corpus cases through
# kernel and object paths must emit byte-identical traces.
kernel-smoke:
	$(PYTHON) -m tests.kernel_smoke

bench:
	$(PYTHON) -m pytest benchmarks/bench_simulator_throughput.py \
		benchmarks/bench_event_microbench.py --benchmark-only -q \
		-k "not ledger"
	$(PYTHON) benchmarks/perf_report.py --out BENCH_$$(date +%F).json

# Tiny deterministic perf run (seconds): exercises the same measurement
# and validation code as `make bench` without the full grid, then diffs
# the result against the checked-in smoke baseline with a loose 50%
# threshold — loose enough to ride out container noise, tight enough to
# catch an order-of-magnitude regression on every `make verify`.
bench-smoke:
	OUT=$$(mktemp -u) && \
	$(PYTHON) benchmarks/perf_report.py --smoke --out $$OUT && \
	$(PYTHON) benchmarks/bench_compare.py \
		benchmarks/BENCH_smoke_baseline.json $$OUT \
		--threshold 0.5 --total-only && \
	rm -f $$OUT

# The end-to-end benchmark's schema-and-checks pass (~10 s): all eight
# workloads through the real deployments (shard-host children included),
# every repetition checked, no numbers gated. run.py pins its own
# environment, so it gets plain python3 exactly like the PR driver.
bench-suite-smoke:
	python3 benchmarks/suite/run.py --smoke
	$(PYTHON) -m pytest benchmarks/suite -q

# Compare REF with the working tree on one suite workload: alternating
# runs (the first side alternating too), every pair printed, then
# medians, quartiles, wins and the choosing-metrics §8 verdict per
# end-to-end metric. REF is a commit (checked out into a temporary
# `git worktree`) or the path of an existing checkout.
# Usage: make bench-pair REF=HEAD~1 WORKLOAD=proc2-wide-c8 [PAIRS=10]
bench-pair:
	python3 benchmarks/bench_pair.py --ref $(REF) --workload $(WORKLOAD) \
		$(if $(PAIRS),--pairs $(PAIRS),)

# Line counts per package, total and code-only (tools/loc.py, stdlib
# tokenize), then the two modules every open ROADMAP item edits.
# Usage: make loc [LOC_ROOT=path/to/other/checkout/src/repro]
LOC_ROOT ?= src/repro
loc:
	$(PYTHON) tools/loc.py $(LOC_ROOT) $(LOC_ROOT)/service/manager.py \
		$(LOC_ROOT)/service/sharding/coordinator.py

# Diff two BENCH ledgers (review gate for perf PRs): non-zero exit when
# any protocol row or the total drops >10% events/s vs BASE.
# Usage: make bench-compare BASE=BENCH_old.json HEAD=BENCH_new.json
bench-compare:
	$(PYTHON) benchmarks/bench_compare.py $(BASE) $(HEAD) \
		$(if $(THRESHOLD),--threshold $(THRESHOLD),)

# Heavy-traffic parity harness (docs/TESTING.md), all phases socket-free:
# sequential decision parity across every execution path, the virtual-time
# simulator oracle, then a >=100k-arrival overload trace with bursts and
# chaos against live 1-shard and 4-shard deployments — serializability,
# conservation, and abort-attribution checked. Appends committed-throughput
# trend rows to BENCH_stress_<date>.json (diffable via make bench-compare).
# Usage: make stress [STRESS_TXNS=200000] [STRESS_LEDGER=path.json]
stress:
	$(PYTHON) -m repro stress \
		--transactions $(if $(STRESS_TXNS),$(STRESS_TXNS),100000) \
		--ledger $(if $(STRESS_LEDGER),$(STRESS_LEDGER),BENCH_stress_$$(date +%F).json)

# Small deterministic slice of the same harness (seconds); part of
# `make verify`. Writes a throwaway ledger so the shard-scaling gate can
# assert the 4-shard smoke run commits at least as much throughput as
# the 1-shard run (tolerance via bench_compare --threshold).
stress-smoke:
	tmp=$$(mktemp -u /tmp/stress_smoke_XXXXXX.json) && \
	$(PYTHON) -m repro stress --smoke --ledger $$tmp && \
	$(PYTHON) benchmarks/bench_compare.py $$tmp --shard-scaling; \
	status=$$?; rm -f $$tmp; exit $$status

# The 100k-arrival overload workload against a real 4-process
# deployment, with the in-process 1-shard run as the ledger baseline.
# Appends @1sh and @4proc trend rows, then prints the shard-scaling
# table. The table here is a report, not a gate (`|| true`): @Nproc
# rows are informational by design (on a single-core box the ratio
# measures socket overhead, not scaling — docs/PERFORMANCE.md), and a
# full trend ledger mixes rows from runs with different workload
# profiles; the enforced scaling gate is `make stress-smoke`, which
# grades a single fresh run. The target still fails when the stress
# run itself fails (serializability, conservation, abort bounds).
# Usage: make stress-procs [STRESS_TXNS=100000] [STRESS_LEDGER=path.json]
stress-procs:
	ledger=$(if $(STRESS_LEDGER),$(STRESS_LEDGER),BENCH_stress_$$(date +%F).json) && \
	$(PYTHON) -m repro stress \
		--transactions $(if $(STRESS_TXNS),$(STRESS_TXNS),100000) \
		--shards 1 --shard-procs 4 --ledger $$ledger && \
	{ $(PYTHON) benchmarks/bench_compare.py $$ledger --shard-scaling || true; }

# Every benchmark, including the slow full-ledger comparison cases.
bench-all:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q
	$(PYTHON) benchmarks/perf_report.py --out BENCH_$$(date +%F).json
