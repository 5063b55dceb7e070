#!/bin/sh
# verify.sh is the repo's correctness gate: build, vet, formatting, the
# repo-aware static-analysis suite, brief fuzzing of the byte decoders, the
# race-enabled tests and a repeated run of the certificate-minting tests, in
# that order. Each stage must pass before the next runs; the script fails on
# the first broken stage.
set -eu

cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# Every Go file in the tree, the benchmark module included, is gofmt-clean.
echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# perfbench/ is its own module (it builds against this checkout through a
# replace directive), so the root's ./... never compiles it.
echo "==> perfbench: vet + test the benchmark module"
(cd perfbench && go vet ./... && go test ./...)

echo "==> tangledlint ./..."
go run ./cmd/tangledlint ./...

echo "==> metrics-smoke: debug endpoints and the notaryd lifecycle"
./scripts/metrics_smoke.sh

echo "==> dataset-smoke: interchange round-trip + corruption rejection"
./scripts/dataset_smoke.sh

echo "==> chaos: campaign under injected faults"
go test -race -run TestChaosCampaignDeterministic ./internal/campaign/

# The crash gate: re-run the notary ingest, crashing after every write/
# sync/rename boundary, and prove recovery always yields exactly the
# acknowledged prefix. CRASH_GATE=off skips the dedicated stage (the sweep
# still runs inside the full test pass below unless that is also trimmed).
if [ "${CRASH_GATE:-on}" = "off" ]; then
	echo "==> crash: skipped (CRASH_GATE=off)"
else
	echo "==> crash: notary crashpoint recovery sweep"
	go test -race -run TestCrashpointSweep ./internal/notary/
fi

# A brief run of each byte-decoder fuzzer, and of the differential fuzzer
# that holds certgen's ECDSA signer and its signature check to
# ecdsa.VerifyASN1: a regression guard rather than a search. A failing
# input is written under the package's testdata/fuzz/ for replay.
echo "==> fuzz: request lines, WAL frames, snapshots, columnar and JSONL datasets, the tap parser and certgen's ECDSA signer and check, 10s each"
go test -run '^$' -fuzz '^FuzzCollectRequest$' -fuzztime 10s ./internal/collect/
go test -run '^$' -fuzz '^FuzzNotarynetRequest$' -fuzztime 10s ./internal/notarynet/
go test -run '^$' -fuzz '^FuzzWALScan$' -fuzztime 10s ./internal/notary/
go test -run '^$' -fuzz '^FuzzSnapshotLoad$' -fuzztime 10s ./internal/notary/
go test -run '^$' -fuzz '^FuzzColumnarRead$' -fuzztime 10s ./internal/dataset/
go test -run '^$' -fuzz '^FuzzJSONLRead$' -fuzztime 10s ./internal/dataset/
go test -run '^$' -fuzz '^FuzzTapParser$' -fuzztime 10s ./internal/tap/
go test -run '^$' -fuzz '^FuzzSignatureCheck$' -fuzztime 10s ./internal/certgen/

echo "==> go test -race ./..."
go test -race ./...

# Tests that mint certificates share the process-wide corpus, and a seeded
# generator re-creates byte-identical certificates on a second run in the
# same process. The analysis tests also set GOMAXPROCS, another
# process-wide setting. Running these packages three times in one process
# fails any test whose outcome depends on state an earlier run left behind.
echo "==> count: certificate-minting tests, three runs per process"
go test -count=3 ./internal/chain/ ./internal/rootstore/ ./internal/trusteval/ ./internal/corpus/ ./internal/certid/ ./internal/certgen/ ./internal/tlsnet/ ./internal/cauniverse/ ./internal/mitm/ ./internal/analysis/ ./internal/recommend/

# The bench-gate compares the Table/Figure benchmarks against the committed
# serial baseline and fails on a >25% ns/op regression or a >25% allocs/op
# regression. Allocations are not exact from run to run (one Table 6
# benchmark has read 35,861 to 35,979 allocs/op on unchanged code), but
# they stay stable to far inside the 25% gate, even on loaded machines.
# The baseline was recorded at GOMAXPROCS=1, so
# the run pins -cpu 1: the parallel engine allocates per worker, and at the
# host's GOMAXPROCS allocs/op would not compare like with like. BENCH_GATE=off skips it (useful on loaded or
# throttled machines where timings are meaningless). BENCH_BASELINE picks
# a different committed baseline file.
BENCH_BASELINE=${BENCH_BASELINE:-BENCH_pr10.json}
if [ "${BENCH_GATE:-on}" = "off" ]; then
	echo "==> bench-gate: skipped (BENCH_GATE=off)"
else
	echo "==> bench-gate: Table/Figure vs $BENCH_BASELINE (tolerance 25% time, 25% allocs)"
	go test -run '^$' -bench 'Table|Figure' -benchmem -benchtime "${BENCH_TIME:-3x}" -cpu 1 . |
		go run ./cmd/benchjson gate -baseline "$BENCH_BASELINE" -match 'Table|Figure' -tolerance 0.25 -alloc-tolerance 0.25
fi

# The SLO gate: boot a sharded notary topology, drive a bounded loadgen
# burst through the wire protocol, and fail on a p99 ingest latency or
# error-budget violation (objectives and sizes via SLO_* env knobs; see
# scripts/slo_gate.sh). SLO_GATE=off skips it — shared CI runners have
# noisy latency, so like the bench gate the hard thresholds stay local and
# CI runs a relaxed smoke instead.
if [ "${SLO_GATE:-on}" = "off" ]; then
	echo "==> slo-gate: skipped (SLO_GATE=off)"
else
	echo "==> slo-gate: loadgen p99/error-budget SLO"
	./scripts/slo_gate.sh
fi

echo "verify: all gates passed"
