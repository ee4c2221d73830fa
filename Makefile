# `make verify` is the PR gate. Each prerequisite, and what it proves:
#   test               tier-1 pytest suite (ROADMAP.md); every paper claim passes
#   smoke              `repro reproduce --extended` passes; stdout at --jobs 2 == --jobs 1
#   kernel-smoke       array kernel and object path emit byte-identical traces
#   bench-suite-smoke  every BENCHMARK.json workload runs once, tiny, all checks pass
#   stress-smoke       decision parity + simulator oracle; the arrival schedule
#                      through the load driver's open loop (sessions overlap
#                      and wait), checked for serializability, conservation
#                      and abort bounds at 1 and 4 shards, pcp-da and rw-pcp
#
# `test` runs every tier-1 test once, the batteries below included.
# Run alone, or with SOAK=1 for their soaks, they stay targets of their
# own:
#   verify-service     in-process service battery, socket-free (docs/SERVICE.md)
#   verify-sharding    sharded-deployment battery, socket-free (docs/SHARDING.md),
#                      including the event-driven wake-ups and both
#                      cross-shard deadlock cases (tests/test_event_driven.py)
#   verify-procs       shard-host processes: frames, proxy, supervisor, no orphans
#
# Outside `make verify`: `make bench-pair` (alternating runs of two
# commits on the end-to-end suite workloads, benchmarks/bench_pair.py —
# the one perf gate, exit 1 on a regression beyond a BENCHMARK.json
# bound), `make bench` (pytest-benchmark microbench rows), `make stress`
# (the 100k-arrival invariant run), `make loc` (code-only line
# counts per src/repro package — the one way a PR counts "smaller"), and
# `make startup` (the modules, lines and import time each serving
# entrypoint loads, and `repro serve`'s spawn-to-listening median —
# tools/startup.py, the layer attribution behind a `setup_s` claim).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify verify-service verify-sharding verify-procs \
	test smoke kernel-smoke bench bench-suite-smoke \
	bench-pair bench-all stress stress-smoke loc startup

verify: \
	test \
	smoke \
	kernel-smoke \
	bench-suite-smoke \
	stress-smoke

# The in-process service battery (no sockets): manager semantics, the
# lock core driven with no event loop, the park → wait → unpark battery (every kind of wait ended every way, the
# stale-exemption cycle, a violation that must not wedge the service), the
# constraint graph's property battery, the simulator differential, wire
# dispatch, the connection class fed raw bytes over an in-memory
# transport (framing, garbage, stalls, disconnects, over-long replies,
# retired session ids), the loadgen driven through the in-process
# transport, the bytes a finished transaction leaves behind, Theorem 1
# per request on the live service, and the names the benchmark tracer
# wraps. SOAK=1 adds the TCP soaks and the retained-memory soak
# (tests/test_service_retire.py::TestRetainedBytesSoak: 100k sequential
# commits through LockCore and a 4-shard ShardedCore, tracemalloc growth
# per commit from 20k on).
verify-service:
	$(PYTHON) -m pytest -q tests/test_service_manager.py \
		tests/test_service_core.py \
		tests/test_service_park.py tests/test_service_constraints.py \
		tests/test_service_differential.py tests/test_service_wire.py \
		tests/test_service_connection.py tests/test_service_loadgen.py \
		tests/test_service_retire.py \
		tests/test_service_single_blocking.py \
		tests/test_benchmark_compat.py
	$(if $(SOAK),$(PYTHON) -m pytest -q -m service_soak --override-ini \
		'addopts=-q',)

# The sharded-deployment battery (no sockets): partitioners, the sharded
# core driven as plain calls with no event loop, coordinator
# semantics (routing, gate, guard, cascades, cross-shard deadlock), the
# notification-driven gate/guard wake-ups and the shard-local cycle
# exemption, the 1-shard decision-equivalence differential, and the
# 4-shard replay acceptance run. The multi-shard TCP soak runs only when
# SOAK=1.
verify-sharding:
	$(PYTHON) -m pytest -q tests/test_sharding_partitioner.py \
		tests/test_sharding_core.py \
		tests/test_sharding_coordinator.py tests/test_event_driven.py \
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

# The extended ledger through two worker processes, its stdout compared
# byte for byte with the in-process run.
smoke:
	tmp=$$(mktemp -d) && \
	{ $(PYTHON) -m repro reproduce --extended --jobs 2 > $$tmp/jobs2 && \
	  $(PYTHON) -m repro reproduce --extended --jobs 1 > $$tmp/jobs1 && \
	  cmp $$tmp/jobs1 $$tmp/jobs2; }; \
	status=$$?; cat $$tmp/jobs2; rm -rf $$tmp; exit $$status

# Array-kernel equivalence smoke: representative corpus cases through
# kernel and object paths must emit byte-identical traces.
kernel-smoke:
	$(PYTHON) -m tests.kernel_smoke

# pytest-benchmark layer rows (whole simulator runs, per-event and
# per-layer microbenchmarks): for attributing a suite delta, not a gate.
bench:
	$(PYTHON) -m pytest benchmarks/bench_simulator_throughput.py \
		benchmarks/bench_event_microbench.py --benchmark-only -q \
		-k "not ledger"

# The end-to-end benchmark's schema-and-checks pass (~10 s): all eight
# workloads through the real deployments (shard-host children included),
# every repetition checked, no numbers gated. run.py pins its own
# environment, so it gets plain python3 exactly like the PR driver.
bench-suite-smoke:
	python3 benchmarks/suite/run.py --smoke
	$(PYTHON) -m pytest benchmarks/suite -q

# Compare REF with the working tree on suite workloads: alternating
# runs (the first side alternating too), every pair printed, then
# medians, quartiles, wins, the choosing-metrics §8 gain verdict and an
# ok / REGRESSION / unresolved verdict against the BENCHMARK.json bound
# per end-to-end metric, one block per workload; exits 1 on any
# REGRESSION. WORKLOAD is one name, a
# comma list, or `all` (pair i of every workload runs before pair i+1).
# REF is a commit (checked out into a temporary `git worktree`) or the
# path of an existing checkout.
# Usage: make bench-pair REF=HEAD~1 WORKLOAD=proc2-wide-c8|all [PAIRS=10]
bench-pair:
	python3 benchmarks/bench_pair.py --ref $(REF) --workload $(WORKLOAD) \
		$(if $(PAIRS),--pairs $(PAIRS),)

# Line counts per package, total and code-only (tools/loc.py, stdlib
# tokenize), then the modules open ROADMAP items edit: the lock core and
# its manager, the coordinator and supervisor, and the load driver with
# the stress harness built on it.
# Usage: make loc [LOC_ROOT=path/to/other/checkout/src/repro]
LOC_ROOT ?= src/repro
loc:
	$(PYTHON) tools/loc.py $(LOC_ROOT) $(LOC_ROOT)/service/core.py \
		$(LOC_ROOT)/service/manager.py \
		$(LOC_ROOT)/service/sharding/core.py \
		$(LOC_ROOT)/service/sharding/coordinator.py \
		$(LOC_ROOT)/service/sharding/procs/supervisor.py \
		$(LOC_ROOT)/service/loadgen.py $(LOC_ROOT)/verify/stress.py

# Cold start of the processes that serve the lock core (tools/startup.py):
# per entrypoint (`import repro.service.server`, the tcp-wide-c2 child's
# imports, `repro shard-host`) the repro modules and source lines loaded
# and `-X importtime` self time by package; then the median
# spawn-to-listening time of 7 `repro serve --port 0` launches.
startup:
	$(PYTHON) tools/startup.py

# Heavy-traffic parity harness (docs/TESTING.md), all phases socket-free:
# sequential decision parity across every execution path, the virtual-time
# simulator oracle, then a >=100k-arrival overload trace with bursts and
# chaos, run as the load driver's open loop over the in-process client
# against live 1-shard and 4-shard deployments — serializability,
# conservation, and abort-attribution checked.
# Usage: make stress [STRESS_TXNS=200000]
stress:
	$(PYTHON) -m repro stress \
		--transactions $(if $(STRESS_TXNS),$(STRESS_TXNS),100000)

# The same harness with 400 arrivals and small parity/oracle phases
# (seconds); part of `make verify`.  The second run repeats the
# concurrent phase under rw-pcp, so the install count and the
# served-set rules are checked on a second protocol.
stress-smoke:
	$(PYTHON) -m repro stress --smoke
	$(PYTHON) -m repro stress --smoke --protocol rw-pcp --skip-parity

# Every benchmark, including the slow full-ledger comparison cases.
bench-all:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q
