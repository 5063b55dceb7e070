# Build and verification entry points. `make verify` is the tier-1 gate:
# it chains build, vet, the tangledlint static-analysis suite, and the
# race-enabled tests via verify.sh.

GO ?= go

# The committed benchmark baseline the bench gate compares against; thread
# a different file with `make bench-gate BENCH_BASELINE=BENCH_prX.json`.
BENCH_BASELINE ?= BENCH_pr10.json

.PHONY: build test lint vet chaos crash metrics-smoke dataset-smoke bench bench-gate slo-gate verify ci loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/tangledlint ./...

test:
	$(GO) test -race ./...

# The chaos gate: the full pipeline under an injected fault plan, asserting
# determinism, graceful degradation, and unskewed aggregates.
chaos:
	$(GO) test -race -v -run TestChaosCampaignDeterministic ./internal/campaign/

# The crash gate: crash the notary after every write/sync/rename boundary
# of a full ingest and prove recovery yields exactly the acknowledged
# prefix, byte-for-byte, for three seeds.
crash:
	$(GO) test -race -v -run TestCrashpointSweep ./internal/notary/

# The observability gate: boot collectd and a durable 2-shard notaryd,
# scrape their debug endpoints and check each payload is well-formed
# snapshot JSON; then shut notaryd down, fsck its shards and check a
# narrower reboot is refused.
metrics-smoke:
	./scripts/metrics_smoke.sh

# The interchange gate: export a fleet, convert JSONL -> columnar, verify
# both directories, and check the verifier rejects a truncated file.
dataset-smoke:
	./scripts/dataset_smoke.sh

# Full benchmark sweep with -benchmem, emitting a BENCH JSON record.
bench:
	BENCH_BASELINE=$(BENCH_BASELINE) ./scripts/bench.sh

# Compare the Table/Figure benchmarks against the committed serial baseline
# (recorded at GOMAXPROCS=1, hence -cpu 1), failing on a >25% ns/op
# regression.
bench-gate:
	$(GO) test -run '^$$' -bench 'Table|Figure' -benchmem -benchtime 3x -cpu 1 . | \
		$(GO) run ./cmd/benchjson gate -baseline $(BENCH_BASELINE) -match 'Table|Figure' -tolerance 0.25 -alloc-tolerance 0.25

# The SLO gate: a bounded loadgen burst against a sharded in-process
# notary, failing on a p99 ingest latency or error-budget violation.
# Sizes and objectives via SLO_* env knobs (see scripts/slo_gate.sh).
slo-gate:
	./scripts/slo_gate.sh

verify:
	BENCH_BASELINE=$(BENCH_BASELINE) ./verify.sh

# Non-test Go line count, leaving out the benchmark module, the lint
# fixtures and the benchmark build cache: the size figure CHANGES.md and
# ROADMAP.md cite.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './internal/lint/testdata/*' ! -path './.bench_build/*' | xargs cat | wc -l

# Exactly what the CI verify job runs, for reproducing CI results locally:
# the full verify chain with the machine-sensitive gates off (CI runners
# have noisy timings), one iteration of every benchmark, and a small
# relaxed-threshold loadgen smoke.
ci:
	BENCH_GATE=off SLO_GATE=off ./verify.sh
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/tangled loadgen -shards 2 -sessions 600 -clients 4 -batch 32 -leaves 120 -p99-ms 2000 -error-budget 0.02
