# Development targets. `make check` is the PR gate: vet, build, the full
# test suite under the race detector (the sweep engine runs a worker pool on
# every MinDepth/Radius/Diameter call, so every PR must exercise it under
# -race), the sweep engine's tests on a one-worker pool, a one-iteration
# sweep benchmark smoke, a small faultbench run proving the fault-injection
# / repair pipeline end to end, and a run of every examples/ program.

GO ?= go

.PHONY: check vet staticcheck build test race single-worker cover perfbench-check bench-smoke examples-smoke fault-smoke fuzz-smoke serve-smoke plan-smoke churn-smoke store-smoke sim-smoke matrix-smoke bench sweep-record fault-record obs-record plan-record churn-record store-record sim-record matrix-record experiments

check: vet staticcheck build race single-worker cover perfbench-check bench-smoke examples-smoke fault-smoke fuzz-smoke serve-smoke plan-smoke churn-smoke store-smoke sim-smoke matrix-smoke

# Vet plus a formatting gate: gofmt must list no file.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# Static analysis beyond vet. Skipped gracefully where the binary is not
# installed (CI installs it; see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sweep engine's packages again on a one-worker pool: on a multi-CPU
# host the single-worker interleaving (one goroutine claiming every root,
# lane batch after lane batch) is otherwise never exercised. -count=1
# because GOMAXPROCS is not part of the test cache key.
single-worker:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/graph ./internal/spantree

# Atomic-mode coverage over the library packages (cmd/ mains and examples/
# are exercised by the smokes, not unit tests) with a floor at the recorded
# baseline. Raise COVER_MIN when coverage rises; never lower it.
COVER_MIN ?= 92.1
COVER_PKGS = $(shell $(GO) list ./... | grep -v '/cmd/' | grep -v '/examples/')

cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit !(t+0 >= min+0) }' || \
		{ echo "coverage $$total% fell below the $(COVER_MIN)% baseline"; exit 1; }

# The benchmark under perfbench/ is its own Go module, so ./... above never
# compiles it; vet and test it against this checkout's packages.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every Sweep* benchmark, of BenchmarkStageRepair and of
# BenchmarkComponentDiameter: proves the naive and pruned sweep paths still
# run and agree, that 1% loss still heals, and that both ComponentDiameter
# paths run, without paying full measurement time.
bench-smoke:
	$(GO) test -run='^$$' -bench='Sweep|StageRepair|ComponentDiameter' -benchtime=1x . ./internal/graph

# Run every examples/ program and require exit 0. go test never runs their
# main functions; examples/weighted drives the whole WeightedPlan surface.
examples-smoke:
	@set -e; pkgs=$$($(GO) list ./examples/...); for pkg in $$pkgs; do \
		echo "examples-smoke: $$pkg"; \
		$(GO) run $$pkg >/dev/null; \
	done

# Small end-to-end run of the self-healing pipeline: inject loss, repair,
# and require the record machinery to work, without paying full bench time.
fault-smoke:
	$(GO) run ./cmd/faultbench -sizes 64 -rates 0.01 -trials 1 -out /dev/null

# Serving-layer smoke: boot gossipd, drive it for two seconds with an
# open-loop loadgen burst that asserts a non-zero cache hit rate, exact
# hit/miss/coalesced reconciliation between its request log and the
# server's /metrics counters, and a 422 (not a crash) on the
# disconnected-network probe — then SIGTERM the server and require a clean
# drain (exit 0).
SERVE_ADDR ?= 127.0.0.1:18473

serve-smoke:
	@mkdir -p bin
	$(GO) build -o bin/gossipd ./cmd/gossipd
	$(GO) build -o bin/loadgen ./cmd/loadgen
	@set -e; \
	./bin/gossipd -addr $(SERVE_ADDR) -workers 4 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	./bin/loadgen -url http://$(SERVE_ADDR) -duration 2s -rate 100 -n 128 -cold-keys 8 -assert; \
	kill -TERM $$pid; \
	wait $$pid; \
	echo "serve-smoke: clean drain"

# Ten seconds each of coverage-guided fuzzing: the repair planner's
# model-safety invariant (every emitted schedule must replay cleanly under
# schedule.Run from the hold-state it was planned for), the implicit plan's
# equivalence invariant (closed-form rounds, cursor rounds read in and out
# of order, and timetables must be bit-identical to the materialising
# builder on random connected graphs),
# the plan codec's no-panic invariant (arbitrary bytes — the store's
# threat model after disk corruption — must decode to a valid plan or a
# clean error, never a crash), and the async simulator's invariants on
# fuzzer-chosen trees and seeded latency models (no panic, no double
# receive, full coverage, bounded completion), and the compiled fault
# injector's equivalence invariant (hold sets, drop counts and every
# observer event identical to asking the same injector through the
# Injector interface).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzPlanRounds -fuzztime=10s ./internal/repair
	$(GO) test -run='^$$' -fuzz=FuzzCompiledInjector -fuzztime=10s ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzImplicitRound -fuzztime=10s ./internal/implicit
	$(GO) test -run='^$$' -fuzz=FuzzPlanDecode -fuzztime=10s ./internal/implicit
	$(GO) test -run='^$$' -fuzz=FuzzSimAsync -fuzztime=10s ./internal/sim

# Store gate: the crash-safety unit tests (torn/truncated/bit-flipped
# entries quarantined, warm start bit-identical, degraded-store serving),
# then a short end-to-end run of the replicated store benchmark: spawn two
# replicas over real store directories, build a key set, SIGKILL everything,
# require a zero-rebuild warm start from disk, and kill/resurrect one
# replica under open-loop load requiring >= 99.9% client success with
# bounded retries.
store-smoke:
	@mkdir -p bin
	$(GO) test ./internal/planstore
	$(GO) test -run 'Store|Tier2|Codec' ./internal/plancache ./internal/implicit .
	$(GO) build -o bin/gossipd ./cmd/gossipd
	$(GO) build -o bin/loadgen ./cmd/loadgen
	./bin/loadgen -gossipd bin/gossipd -replicas 2 -cold-keys 12 -n 256 \
		-rate 100 -failover-duration 4s -retries 5 -assert -store-out /dev/null

# Churn gate: seeded add/remove flaps on a ring and a random graph at
# n = 1024 driven through the DynamicPlanner with WithPatchVerify, so every
# grafted or rebuilt plan is certified by the full Plan.Verify replay and
# the final plan executes to full coverage. The test also asserts that
# structural patches actually occurred (a run that only reused plans proves
# nothing about grafting).
churn-smoke:
	$(GO) test -run='^TestChurnSmoke$$' .

# Differential gate for the implicit plan encoding: every round of a seeded
# random n = 4096 plan, from the closed form and from an in-order cursor,
# compared bit-for-bit against the materialised builder, the >=100x
# byte-ratio acceptance floor, and an n = 10^5 implicit construction — all
# under GOMEMLIMIT so a space regression in either encoding fails loudly.
plan-smoke:
	GOMEMLIMIT=1GiB $(GO) run ./cmd/planbench -smoke

# Differential gate for the sharded event-loop simulator: a seeded random
# n = 4096 simulation streamed round-by-round through a sink and held
# bit-identical to the plan's closed-form schedule (O(n) memory, no
# materialisation), then async runs under deterministic, uniform and
# heavy-tail latency models asserting full coverage within the
# n + 2r + maxLatency*height completion bound.
sim-smoke:
	$(GO) run ./cmd/simbench -smoke

# Portfolio gate: every registered algorithm × {ring, grid, random} ×
# {fault-free, 10% link loss} at small sizes, each cell asserted against
# the algorithm's registered rounds bound (fault-free cells re-verify
# under the model; lossy cells must heal to completion).
matrix-smoke:
	$(GO) run ./cmd/matrixbench -smoke

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# The *-record targets regenerate the committed BENCH_*.json records. Each
# record leads with the cliutil.Env header (tool, GOMAXPROCS, CPU count, Go
# version, git revision); plain `go run` stamps no VCS info, so they run
# with -buildvcs=true (`go build` stamps it by default).
#
# Regenerate the BENCH_sweep.json perf record (naive vs pruned sweep across
# ring/grid/random at n in {256, 1024, 4096}).
sweep-record:
	$(GO) run -buildvcs=true ./cmd/sweepbench -out BENCH_sweep.json

# Regenerate the BENCH_fault.json robustness record (coverage vs loss rate
# and repair overhead across ring/grid/random at n in {256, 1024}).
fault-record:
	$(GO) run -buildvcs=true ./cmd/faultbench -out BENCH_fault.json

# Regenerate the BENCH_obs.json observability-overhead record (untraced vs
# nil-observer vs sink-attached execution on a ring at n = 1024).
obs-record:
	$(GO) run -buildvcs=true ./cmd/obsbench -out BENCH_obs.json

# Regenerate the BENCH_store.json resilience record: a two-replica cluster
# over real store directories — cold construction cost vs warm-start-from-
# disk cost after SIGKILLing the whole fleet, then a 30-second open-loop
# failover run (kill one replica at T/3, resurrect it at 2T/3) with bounded
# jittered retries and the 99.9% success floor asserted.
store-record:
	@mkdir -p bin
	$(GO) build -o bin/gossipd ./cmd/gossipd
	$(GO) build -o bin/loadgen ./cmd/loadgen
	./bin/loadgen -gossipd bin/gossipd -replicas 2 -cold-keys 32 -n 512 \
		-rate 100 -failover-duration 30s -retries 5 -assert -store-out BENCH_store.json

# Regenerate the BENCH_plan.json plan-encoding record: implicit O(n) plans
# vs materialised O(n²) schedules (bytes, construction time, first-round
# latency, closed-form vs cursor per-round enumeration) at n in
# {1024, 4096}, plus implicit-only construction runs at n in {10^5, 10^6}.
# The full ring/grid materialisations take minutes; GOMEMLIMIT keeps the
# ring n = 4096 one near 2.7 GB resident instead of over 6 GB.
plan-record:
	GOMEMLIMIT=2GiB $(GO) run -buildvcs=true ./cmd/planbench -out BENCH_plan.json

# Regenerate the BENCH_churn.json churn record: patch turnaround vs cold
# rebuild on ring/random at n in {1024, 4096}, each at GOMAXPROCS 1 and
# NumCPU, with the 10x floor asserted on the largest random case, plus the deterministic flap-hysteresis trace
# (suppressed within the window, rebuilt outside it).
churn-record:
	$(GO) run -buildvcs=true ./cmd/churnbench -out BENCH_churn.json

# Regenerate the BENCH_sim.json simulator record: million-node sync runs
# (star and 1000-ary tree, leaf fan-out folding), exact fold-off runs at
# n in {16384, 32768} where every point delivery is simulated, and async
# event-driven runs under a uniform latency model.
sim-record:
	$(GO) run -buildvcs=true ./cmd/simbench -out BENCH_sim.json

# Regenerate the BENCH_matrix.json scenario-matrix record: the full
# portfolio (6 algorithms) × ring/grid/random × fault-free/lossy at
# n in {16, 36, 64}, every cell asserted within its registered bound.
matrix-record:
	$(GO) run -buildvcs=true ./cmd/matrixbench -out BENCH_matrix.json

experiments:
	$(GO) run ./cmd/experiments
