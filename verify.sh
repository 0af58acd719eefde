#!/bin/sh
# verify.sh — repo-wide quality gate: formatting, vet, build, race-enabled
# tests. Run before every commit; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== gia-vet (determinism lint: sim, chaos, experiment, serve; global maps: all of internal/) =="
# The custom linter forbids time.Now, the global math/rand source and
# map-iteration-ordered output in the deterministic packages. In
# internal/serve every wall-clock read must carry a //gia:wallclock
# justification so nothing unguarded leaks into telemetry output. Over
# every package under internal/, a package-level mutable map (a process-
# global cache) must carry a //gia:global justification on its line.
go run ./cmd/gia-vet

echo "== go build ./... =="
go build ./...

echo "== benchmark vet (its own module over this one) =="
# The benchmark is a separate module that replaces this one with ../, so
# the root build never compiles it; vet it here so a root API change that
# breaks the benchmark fails the gate. Offline: the module has no other
# dependency.
GOWORK=off GOPROXY=off go -C benchmark vet .

echo "== benchmark tests (every workload at toy size, with its checks) =="
# Vet only proves the benchmark compiles. Its tests run every workload at
# toy size, traced and untraced, with the workload's output checks, so an
# internal change that breaks a workload's output fails here instead of
# only in a full benchmark/run.sh.
GOWORK=off GOPROXY=off go -C benchmark test ./...

echo "== go test -race -count=2 ./... =="
# -count=2 defeats the test cache and catches order- or state-dependent
# flakes in the race-enabled suite (golden traces, the defense matrix and
# the chaos sweeps must be bit-identical run over run). This run covers
# every parity, equivalence, soundness and truth-set test by itself; only
# the allocation budgets skip under race and get their own gate below.
go test -race -count=2 ./...

echo "== frontier stress (race, 20 runs) =="
# The explorer's frontier parks idle workers on a condition variable. A
# lost wakeup there hangs instead of failing, and two race runs may not
# hit the interleaving, so the frontier tests repeat 20 times under a
# timeout that turns a hang into a failure.
go test -race -count=20 -timeout 120s -run '^TestFrontier' ./internal/par

echo "== bench smoke (worker-pool engine under race, 1 iteration) =="
# One race-enabled iteration of the parallel experiment engine: AllTables
# and the fleet study fan out on the shared pool, so this catches data
# races the serial unit tests cannot reach.
go test -race -run '^$' -bench '^(BenchmarkAllTables|BenchmarkFleetStudy)' -benchtime=1x .

echo "== alloc budgets (non-race) =="
# The race-enabled suite skips the per-instruction allocation budgets
# (instrumentation changes allocation counts); pin them here without race.
# The obs gate proves disabled observability hooks cost zero allocations,
# which is what keeps the analysis budgets intact with hooks compiled in.
go test -run 'AllocBudget' -count=1 ./internal/analysis
go test -run '^TestDisabledHooksZeroAlloc$' -count=1 ./internal/obs
# Flight-recorder rings must append without allocating: the recorder is
# always on in gia-serve, so any per-event allocation is a fleet-wide tax.
go test -run '^TestRingAppendZeroAlloc$' -count=1 ./internal/obs
# The simulator hot path (schedule+dispatch through the pooled event
# heap) must stay allocation-free, one full AIT schedule on a warm arena
# device must stay within its pinned object budget, and one 900 KiB
# explore-orders schedule within its object and byte budgets (a payload
# copy or a drive that ticks on past the install breaks them).
go test -run '^TestSchedulerAllocBudget$' -count=1 ./internal/sim
go test -run '^(TestAITAllocBudget|TestOrdersAllocBudget)$' -count=1 ./internal/experiment

echo "== cache smoke under race (warm corpus scan, NumCPU workers) =="
# Two race-enabled warm scans through the shared cache: concurrent hits,
# singleflight dedups and LRU movement all run under the race detector.
go test -race -run '^$' -bench '^BenchmarkScanArtifactsWarm$' -benchtime=1x -count=2 .

echo "== gia-serve daemon smoke (HTTP lifecycle + graceful shutdown) =="
# Boot the fleet daemon on a loopback ephemeral port, drive one device
# through create/install/attack/replay/reclaim over real HTTP, scrape
# /metrics for the arena and serve counters, then require a clean
# SIGTERM drain within the timeout. Runs in a subshell with its own EXIT
# trap so a failing step cannot leak the daemon process.
(
    servedir=$(mktemp -d)
    servepid=""
    trap 'test -n "$servepid" && kill "$servepid" 2>/dev/null; rm -rf "$servedir"' EXIT
    go build -o "$servedir/gia-serve" ./cmd/gia-serve
    "$servedir/gia-serve" -addr 127.0.0.1:0 >"$servedir/serve.log" 2>&1 &
    servepid=$!
    url=""
    i=0
    while [ $i -lt 100 ]; do
        url=$(sed -n 's/^gia-serve: listening on \(http:.*\)$/\1/p' "$servedir/serve.log")
        test -n "$url" && break
        kill -0 "$servepid" 2>/dev/null || {
            echo "verify.sh: gia-serve died before listening" >&2
            cat "$servedir/serve.log" >&2
            exit 1
        }
        sleep 0.1
        i=$((i + 1))
    done
    test -n "$url" || {
        echo "verify.sh: gia-serve never reported its listen URL" >&2
        exit 1
    }
    "$servedir/gia-serve" -smoke "$url"
    kill -TERM "$servepid"
    i=0
    while kill -0 "$servepid" 2>/dev/null; do
        i=$((i + 1))
        if [ $i -gt 300 ]; then
            echo "verify.sh: gia-serve did not drain within 30s of SIGTERM" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$servepid" 2>/dev/null || true
    servepid=""
    grep -q "drained and stopped" "$servedir/serve.log" || {
        echo "verify.sh: gia-serve shutdown was not a clean drain" >&2
        cat "$servedir/serve.log" >&2
        exit 1
    }
)

echo "== fuzz smoke (5s per target) =="
# Run every Fuzz target briefly; fuzzing requires one target per
# invocation. The target list is materialized in a temp file — not a pipe —
# so a failing list or a failing fuzz run fails the gate instead of being
# swallowed by a subshell.
fuzzlist=$(mktemp)
trap 'rm -f "$fuzzlist"' EXIT
go test ./... -list 'Fuzz.*' >"$fuzzlist" || {
    echo "verify.sh: fuzz target listing failed" >&2
    exit 1
}
targets=""
while read -r line; do
    case "$line" in
    Fuzz*) targets="${targets:-} $line" ;;
    FAIL*)
        echo "verify.sh: fuzz target listing reported: $line" >&2
        exit 1
        ;;
    ok*)
        pkg=$(echo "$line" | awk '{print $2}')
        for t in ${targets:-}; do
            echo "-- $pkg $t"
            go test "$pkg" -run '^$' -fuzz "^${t}\$" -fuzztime=5s || exit 1
        done
        targets=""
        ;;
    esac
done <"$fuzzlist"
if [ -n "${targets:-}" ]; then
    echo "verify.sh: fuzz targets not attributed to any package:${targets}" >&2
    exit 1
fi

echo "verify.sh: all checks passed"
