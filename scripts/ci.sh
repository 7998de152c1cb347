#!/usr/bin/env bash
# CI gate: formatting, vet, build, the full test suite, a race-detector
# shard over the concurrency-heavy packages, repeated determinism tests,
# and a short native-fuzzing smoke over internal/verify. Run from
# anywhere; operates on the repository root. FUZZTIME (default 10s)
# bounds each fuzz target.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (core/engine/milp/obs/persist/serve/sim/solve/verify shard) =="
go test -race ./internal/core/ ./internal/engine/ ./internal/milp/ ./internal/obs/ ./internal/persist/ ./internal/serve/ ./internal/sim/ ./internal/solve/ ./internal/verify/

echo "== determinism repeats (core/milp, -race -count=3) =="
# An order-dependent result shows up here rather than as a rare flake.
go test -race -count=3 -run 'Determinis' ./internal/core/ ./internal/milp/

echo "== fuzz smoke ($FUZZTIME per target) =="
go test ./internal/verify/ -run='^$' -fuzz='^FuzzValidate$' -fuzztime="$FUZZTIME"
go test ./internal/verify/ -run='^$' -fuzz='^FuzzSimParity$' -fuzztime="$FUZZTIME"
go test ./internal/serve/ -run='^$' -fuzz='^FuzzDecodeRequest$' -fuzztime="$FUZZTIME"
go test ./internal/serve/ -run='^$' -fuzz='^FuzzDecodeStream$' -fuzztime="$FUZZTIME"
go test ./internal/topology/ -run='^$' -fuzz='^FuzzDecodeDelta$' -fuzztime="$FUZZTIME"
go test ./internal/solve/ -run='^$' -fuzz='^FuzzFlowRound$' -fuzztime="$FUZZTIME"
go test ./internal/persist/ -run='^$' -fuzz='^FuzzPersistDecode$' -fuzztime="$FUZZTIME"

echo "== bench smoke =="
# One short sample per solver benchmark (writes to a temp file, not
# BENCH_solver.json): catches benchmark bit-rot without CI-grade noise
# overwriting the recorded numbers.
scripts/bench.sh -quick

echo "== loadtest smoke =="
# A small in-process serving run (temp file, not BENCH_serve.json):
# exercises the daemon + load generator end to end.
scripts/loadtest.sh -quick

echo "== telemetry smoke =="
# Boots the real daemon and asserts /metrics is well-formed (families
# present, every line parseable, no label drift), request ids resolve
# through the flight recorder, and the admin listener serves pprof.
scripts/metrics-smoke.sh

echo "CI checks passed."
