#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
# `./ci.sh cover` runs only the coverage floor check.
set -eux

# Statement-coverage floor over whole packages: check_cover FLOOR PKG...
# Fuzz seed corpora run as ordinary tests inside these passes.
check_cover() {
    floor=$1
    shift
    go test -cover "$@" |
        awk -v floor="$floor" '
            /coverage:/ {
                pct = $0
                sub(/.*coverage: /, "", pct)
                sub(/%.*/, "", pct)
                printf "%-40s %s%%\n", $2, pct
                if (pct + 0 < floor) { bad = 1 }
            }
            END {
                if (bad) { print "coverage below " floor "% floor"; exit 1 }
            }'
}

# The stage batcher assembles multi-block frames whose shared payload the
# retry path re-exposes long after the callers' buffers were recycled; a
# missed branch there is a silent data-corruption path. The batcher files
# (internal/core/batch.go + stagebatch.go) carry a per-file 90% statement
# floor, computed from the package coverprofile.
check_batcher_cover() {
    floor=90
    profile=$(mktemp)
    go test -count=1 -timeout 300s -coverprofile="$profile" ./internal/core/ > /dev/null
    awk -v floor="$floor" '
        m=="" { m=1; next }  # skip the "mode:" header
        $1 ~ /internal\/core\/(batch|stagebatch)\.go:/ {
            split($1, f, ":")
            stmts[f[1]] += $2
            if ($3 > 0) { covered[f[1]] += $2 }
        }
        END {
            n = 0
            for (file in stmts) {
                n++
                pct = 100 * covered[file] / stmts[file]
                printf "%-40s %.1f%%\n", file, pct
                if (pct < floor) { bad = 1 }
            }
            if (n < 2) { print "batcher files missing from coverprofile"; exit 1 }
            if (bad) { print "batcher coverage below " floor "% floor"; exit 1 }
        }' "$profile"
    rm -f "$profile"
}

cover_gates() {
    # The packages whose correctness the rest of the stack leans on
    # (metrics math, collective algorithms, image compositing).
    check_cover 60 ./internal/obs/ ./internal/collectives/ ./internal/icet/
    # The codec layer sits on the untrusted side of the wire (the server
    # decodes whatever a client staged), so it carries a stricter floor:
    # every branch of every registered codec is expected to be reachable
    # from the conformance suite.
    check_cover 90 ./internal/codec/
    # The elastic controller actuates real process launches and membership
    # leaves; a policy bug silently wastes nodes or melts the staging area,
    # so every controller branch is expected to be reachable from the
    # conformance + live-deps suites.
    check_cover 90 ./internal/elastic/
    check_batcher_cover
}

if [ "${1:-}" = "cover" ]; then
    cover_gates
    exit 0
fi

# Formatting gate: every Go file in the tree is gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi
# Retry-path gate: every backoff in core and elastic runs through the one
# cancellable retry loop (RetryPolicy's retrier, internal/core/errors.go).
# A bare time.Sleep there is a wait that neither Close, Shutdown nor Stop
# can interrupt, so no non-test file in those packages may call it.
bare_sleeps=$(grep -n 'time\.Sleep(' $(find internal/core internal/elastic -name '*.go' ! -name '*_test.go') || true)
if [ -n "$bare_sleeps" ]; then
    echo "bare time.Sleep on a retry path (use the retrier):"
    echo "$bare_sleeps"
    exit 1
fi
go build ./...
go vet ./...
go test -timeout 300s ./...
go test -race -timeout 600s ./...
# Trace-ring gate: wrap order, resize on a wrapped ring, copy-out and the
# concurrent End/Trace/SetTraceCapacity accounting, under -race.
go test -race -count=1 -run 'Trace|Span' ./internal/obs/
# Allocs/op gate: the pooled stage/pull/composite hot paths must stay under
# the ceilings locked in by internal/bench/micro_test.go (see BENCH_3.json).
go test -count=1 -run 'AllocsCeiling' ./internal/bench/
# Goroutine-leak gate: endpoint teardown must reap accepted conns and their
# readLoops, and the overload e2e asserts the server's goroutine envelope
# stays bounded (pools, not O(clients)) and drains back to baseline. The
# batcher arm pins the NBStage goroutine bound (10k concurrent calls) and
# that a drained batcher leaves no send goroutines or age timers behind.
go test -count=1 -timeout 120s -run 'TestTCPCloseReapsAcceptedConns|TestOverloadShedsAndRecovers' ./internal/na/ ./internal/e2e/
go test -count=1 -timeout 300s -run 'TestNBStageBoundedGoroutines|TestBatcherDrainNoGoroutineLeak' ./internal/core/
# Retry-primitive gate, under -race: the retry loop's schedule and
# accounting, busy absorption, and cancellation of every backoff (handle
# Close, provider Shutdown, controller Stop), including the migrate retry
# through the provider's sleep seam.
go test -race -count=1 -timeout 300s -run 'Retry|Busy|Cancel|StopDuring|MigrateCall' ./internal/core/ ./internal/elastic/
# Crash-recovery gate: killing the stateful server mid-run must reproduce
# the crash-free oracle's cumulative statistics exactly (replicated
# checkpoints), and the no-replication control arm must document the loss.
go test -race -count=1 -timeout 300s -run 'TestCrashRecovery' ./internal/e2e/
# Compression gate: the crash-recovery-vs-oracle suite reruns with the
# wire codecs live under -race — compressed frames must survive crash
# recovery and delta-base invalidation with bit-identical payloads. (The
# codec arms of the stage-retry chaos matrix run in the shared-memory gate
# below.)
go test -race -count=1 -timeout 300s -run 'TestCrashRecoveryMatchesOracleCompressed' ./internal/e2e/
# Batching gate: the quick-shape BENCH_9 trajectory point must regenerate
# with the batched path ahead of per-block staging.
# Healthy runs sit at ~2.2x; a single-core CI box right after the race
# suites can hit transient multi-second scheduler stalls, so the floor
# gets three attempts — any one clearing 1.2x passes.
bench9=$(mktemp)
bench9_ok=0
for attempt in 1 2 3; do
    go run ./cmd/colza-bench -quick -bench9json "$bench9"
    if awk '/"speedup_x"/ {
            pct = $2 + 0
            printf "BENCH_9 quick speedup (attempt): %.2fx\n", pct
            if (pct >= 1.2) { ok = 1 }
         }
         END { exit ok ? 0 : 1 }' "$bench9"; then
        bench9_ok=1
        break
    fi
done
rm -f "$bench9"
if [ "$bench9_ok" != 1 ]; then
    echo "batched stage path never cleared the 1.2x quick floor in 3 attempts"
    exit 1
fi
# Stage-retry chaos matrix and shared-memory transport gate, under -race:
# every arm of TestChaosStageRetry ({inproc, sm} x {per-block, batched} x
# codec) drops a stage request and a stage response mid-run and checks
# per-byte checksums, retries, codec fallbacks and bulk-region leaks; the
# full-stack e2e and the sm arms run every server (and the client) on
# sm+tcp dual endpoints — frames through the mmap'd rings, bulk pulls
# zero-copy out of the shared arenas, faults injected on the sm route.
# A segment-cleanup sweep follows: a test run must not leave orphaned
# sockets, rings, or bulk arenas in the temp tree.
go test -race -count=1 -timeout 300s -run 'TestColzaOverSM|TestChaosStageRetry' ./internal/e2e/
leftovers=$(find "${TMPDIR:-/tmp}" -maxdepth 2 \
    \( -name 'czsm-*' -o -path '*/colza-sm/*' \) 2>/dev/null | head -20)
if [ -n "$leftovers" ]; then
    echo "orphaned shared-memory segment files after tests:"
    echo "$leftovers"
    exit 1
fi
# BENCH_10 floor, same three-attempt discipline as BENCH_9 below: healthy
# quick runs sit at ~2.4x sm-over-tcp; 1.2x tolerates CI scheduler stalls.
bench10=$(mktemp)
bench10_ok=0
for attempt in 1 2 3; do
    go run ./cmd/colza-bench -quick -bench10json "$bench10"
    if awk '/"speedup_x"/ {
            pct = $2 + 0
            printf "BENCH_10 quick speedup (attempt): %.2fx\n", pct
            if (pct >= 1.2) { ok = 1 }
         }
         END { exit ok ? 0 : 1 }' "$bench10"; then
        bench10_ok=1
        break
    fi
done
rm -f "$bench10"
if [ "$bench10_ok" != 1 ]; then
    echo "shared-memory stage path never cleared the 1.2x quick floor in 3 attempts"
    exit 1
fi
# Elasticity gate: the deterministic conformance suite (virtual clock, no
# real-time sleeps — byte-identical verdict sequences) and the live
# closed-loop e2e (automatic scale-up/down reproducing the static oracle,
# chaos launch failures, leader handoff) both run under -race. The
# controller's shutdown goroutine-leak check rides in the elastic pass
# (TestControllerStopLeaksNoGoroutine).
go test -race -count=1 -timeout 120s ./internal/elastic/
go test -race -count=1 -timeout 300s -run 'TestElastic' ./internal/e2e/
cover_gates
