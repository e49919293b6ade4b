# Local CI for the daxvm simulator. `make ci` is what a pipeline runs.

GO ?= go

.PHONY: ci build fmt vet lint lint-json test bench-smoke hostbench-test race smoke sched-gate perf-gate validate-baselines baseline clean

ci: fmt vet lint build test bench-smoke hostbench-test race smoke sched-gate perf-gate validate-baselines

# Experiments the perf gate runs: cheap, deterministic, and together they
# exercise the journal, allocator, file tables and mapped-access paths.
GATE_IDS = storage ftcost numa

build:
	$(GO) build ./...

# gofmt -l prints offending files; fail when it prints anything.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: determinism, attribution balance,
# lock discipline, charge units, deterministic map export, whole-program
# lock order and hot-path allocations (see tools/simlint; suppress
# findings with //lint:ignore <analyzer> <why>).
lint:
	$(GO) run ./tools/simlint ./...

# Machine-readable lint dump: one JSON finding per line (suppressed
# findings included) in lint.json, which stays untracked. Exit status
# still reflects unsuppressed findings.
lint-json:
	$(GO) run ./tools/simlint -json ./... > lint.json

test:
	$(GO) test ./...

# Run every charge-path and timeline microbenchmark once, so they keep
# compiling and running; timings come from a longer -benchtime by hand.
BENCH_PKGS = ./internal/sim ./internal/obs ./internal/obs/span ./internal/obs/timeline

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# The host-cost benchmark is a nested module outside ./..., so `test`
# does not build it; its short tests catch drift in the simulator API it
# drives.
hostbench-test:
	cd hostbench && $(GO) test -short .

race:
	$(GO) test -race ./...

# End-to-end artifact check: run one quick experiment through the CLI and
# validate the BENCH_*.json it writes (schema validation runs in-process
# via TestArtifactSmoke; this exercises the daxbench flag plumbing too).
smoke:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/daxbench -quick -metrics-out "$$tmp" storage >/dev/null && \
	test -s "$$tmp/BENCH_storage.json" && \
	$(GO) test ./internal/bench/ -run TestArtifactSmoke -count=1 >/dev/null && \
	echo "smoke: BENCH_storage.json written and schema-validated"; \
	rc=$$?; rm -rf "$$tmp"; exit $$rc

# Scheduler-equivalence gate: run one quick experiment through the CLI
# under both schedulers and byte-compare the artifacts up to the host
# block (wall-clock telemetry, serialized last — everything before it is
# virtual-time payload). The in-process half — all three gate experiments
# plus a shard-count sweep — runs as TestSchedGate/TestShardSweep in
# `make test`; this target exercises the -sched/-shards flag plumbing
# end to end.
sched-gate:
	@tmp="$$(mktemp -d)"; rc=0; \
	DAXVM_GIT_SHA=gate $(GO) run ./cmd/daxbench -quick -metrics-out "$$tmp" ftcost >/dev/null || rc=1; \
	mv "$$tmp/BENCH_ftcost.json" "$$tmp/seq.json"; \
	DAXVM_GIT_SHA=gate $(GO) run ./cmd/daxbench -quick -sched shard -shards 4 -metrics-out "$$tmp" ftcost >/dev/null || rc=1; \
	sed '/"host":/,$$d' "$$tmp/seq.json" > "$$tmp/seq.trim"; \
	sed '/"host":/,$$d' "$$tmp/BENCH_ftcost.json" > "$$tmp/shard.trim"; \
	test -s "$$tmp/seq.trim" || rc=1; \
	cmp "$$tmp/seq.trim" "$$tmp/shard.trim" || rc=1; \
	rm -rf "$$tmp"; \
	if [ $$rc -eq 0 ]; then echo "sched-gate: seq and shard artifacts byte-identical"; else echo "sched-gate: FAILED"; fi; exit $$rc

# Perf-regression gate: rerun the gate experiments in quick mode and
# compare each artifact against the committed baseline. The simulator is
# deterministic, so any drift is a real cost-model change — exit 1 tells
# the committer to either fix it or refresh the baseline (make baseline)
# with justification.
perf-gate:
	@tmp="$$(mktemp -d)"; rc=0; \
	$(GO) run ./cmd/daxbench -quick -metrics-out "$$tmp" $(GATE_IDS) >/dev/null || rc=1; \
	for id in $(GATE_IDS); do \
		$(GO) run ./cmd/daxbench -compare "bench/baseline/BENCH_$$id.json" "$$tmp/BENCH_$$id.json" || rc=1; \
	done; \
	rm -rf "$$tmp"; \
	if [ $$rc -eq 0 ]; then echo "perf-gate: ok"; else echo "perf-gate: FAILED"; fi; exit $$rc

# Every committed baseline must parse and pass schema validation: a
# hand-edited or truncated baseline would otherwise surface as a
# confusing compare failure on someone else's branch.
validate-baselines:
	$(GO) run ./cmd/daxbench -validate bench/baseline/*.json
	@echo "validate-baselines: ok"

# Refresh the committed perf-gate baselines (review the diff before
# committing: every change here is a deliberate cost-model retune).
baseline:
	$(GO) run ./cmd/daxbench -quick -metrics-out bench/baseline $(GATE_IDS) >/dev/null
	@echo "baseline: refreshed bench/baseline/ for: $(GATE_IDS)"

clean:
	$(GO) clean ./...
