#!/usr/bin/env sh
# Full local gate: formatting, vet, the domain linter, builds, race-enabled
# tests, and the invariant-tagged test variant. CI and pre-commit both run
# exactly this.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== crowdlint ./... (all 9 checks incl. lockcheck/goroleak/ackflow/srvtimeout) =="
go run ./cmd/crowdlint ./...

echo "== go build ./... =="
go build ./...

echo "== go test -race ./... =="
go test -race ./...

echo "== chaos: SIGKILL mid-ingest and mid-snapshot recovery =="
go test -count=1 -run 'TestChaos' ./internal/serve

echo "== chaos soak: exactly-once acks through the netfault proxy =="
# Short soak by default; set CROWDRANK_SOAK_BATCHES (e.g. 500) for a long
# drill. CROWDRANK_SOAK_SUMMARY captures a JSON run summary (CI uploads it).
go test -count=1 -run 'TestChaosSoakExactlyOnce' ./internal/client

echo "== chaos failover: exactly-once across leader SIGKILL + promotion =="
# Short soak by default; CROWDRANK_FAILOVER_BATCHES lengthens it and
# CROWDRANK_FAILOVER_SUMMARY captures a JSON run summary (CI uploads it).
go test -count=1 -run 'TestChaosFailoverExactlyOnce' ./internal/replica

echo "== fuzz smoke: journal replay =="
go test -run='^$' -fuzz=FuzzJournalReplay -fuzztime=20s ./internal/serve

echo "== fuzz smoke: snapshot load =="
go test -run='^$' -fuzz=FuzzSnapshotLoad -fuzztime=20s ./internal/snapshot

echo "== go test -tags crowdrank_invariants ./... =="
go test -tags crowdrank_invariants ./...

echo "== bench delta: BenchmarkInfer / BenchmarkPlanTasks / BenchmarkSAPSSearch / BenchmarkRankCold / BenchmarkRankWarm / BenchmarkClosure / BenchmarkSAPS vs scripts/bench.baseline =="
# Report-only: machines differ, so the delta informs rather than gates.
# Delete scripts/bench.baseline to re-baseline after an intentional change.
bench_tmp=$(mktemp)
trap 'rm -f "$bench_tmp"' EXIT
go test -run '^$' -bench '^(BenchmarkInfer|BenchmarkPlanTasks|BenchmarkSAPSSearch|BenchmarkRankCold|BenchmarkRankWarm|BenchmarkClosure|BenchmarkSAPS)$' -benchtime 1x -count 3 . ./internal/serve ./internal/propagate ./internal/search >"$bench_tmp"
if [ -f scripts/bench.baseline ]; then
	go run ./cmd/benchdelta -old scripts/bench.baseline -new "$bench_tmp"
else
	cp "$bench_tmp" scripts/bench.baseline
	echo "no baseline found; recorded scripts/bench.baseline for future runs"
fi

echo "== all checks passed =="
