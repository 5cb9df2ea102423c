GO ?= go

.PHONY: all build vet test race cover fuzz bench-smoke ci

# Packages whose statement coverage is gated (see `cover`).
COVER_PKGS = ./internal/obs/ ./internal/collectives/ ./internal/icet/
COVER_FLOOR = 60

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 300s ./...

race:
	$(GO) test -race -timeout 600s ./...

# Enforce the coverage floor on the gated packages. Fuzz seed corpora run
# as part of the normal test pass (go test executes every f.Add seed).
cover:
	./ci.sh cover

# Short smoke run of the fuzzers beyond their seed corpora.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParseLegacyImageData -fuzztime=10s ./internal/vtk/
	$(GO) test -run=NONE -fuzz=FuzzCodecDecode -fuzztime=10s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzStageBatchDecode -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzShmFrameDecode -fuzztime=10s ./internal/na/

# Zero-copy hot-path smoke: one racing pass over the micro-benchmarks
# (correctness under -race), then the allocs/op regression gates in a pure
# build (the ceilings exclude race-instrumentation overhead). See
# internal/bench/micro.go and BENCH_3.json.
bench-smoke:
	$(GO) test -race -run NONE -bench 'BenchmarkStagePut|BenchmarkBulkPull|BenchmarkCompositePooled|BenchmarkStageSaturation|BenchmarkStageBatched|BenchmarkStageOverSM' -benchtime=1x ./internal/bench/
	$(GO) test -count=1 -run 'AllocsCeiling' ./internal/bench/
	# Span cost: a labelled StartSpan+End on an empty and on a full trace
	# ring (End is O(1), so the two should read alike), and its 1-alloc
	# ceiling (see internal/obs/span.go).
	$(GO) test -count=1 -run 'TestSpanAllocsFullRing' -bench 'BenchmarkSpanEnd' -benchtime=100000x ./internal/obs/
	# Codec kernel before/after: word-wise shuffle/XOR next to their
	# byte-wise references (see internal/codec/kernels.go).
	$(GO) test -run NONE -bench 'Kernel' -benchtime=100x ./internal/codec/

# Focused run of the chaos/fault-injection suites.
chaos:
	$(GO) test -race -timeout 600s -run 'TestChaos|TestDeactivateDrains|TestStageRejected|TestDuplicatePrepare|TestDeferredLeave|TestStageRetries' ./internal/core/ ./internal/e2e/

ci:
	./ci.sh
