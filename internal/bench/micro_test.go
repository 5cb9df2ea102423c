package bench

import (
	"testing"

	"colza/internal/core"
)

// The `go test -bench` entry points for the zero-copy hot-path
// micro-benchmarks (make bench-smoke); the bodies live in micro.go so
// colza-bench can run the same code for the BENCH_3.json trajectory.

func BenchmarkStagePut(b *testing.B)           { BenchStagePut(b) }
func BenchmarkStagePutCompressed(b *testing.B) { BenchStagePutCompressed(b) }
func BenchmarkBulkPull(b *testing.B)           { BenchBulkPull(b) }
func BenchmarkCompositePooled(b *testing.B)    { BenchCompositePooled(b) }

// Overload path: tiny stage pool vs parallel stagers (see saturation.go).
func BenchmarkStageSaturation(b *testing.B) { BenchStageSaturation(b) }

// Batched stage path (multi-block frames, see stagebatch.go); the
// unbatched twin runs the identical shape for the BENCH_9 comparison.
func BenchmarkStageBatched(b *testing.B)   { BenchStageBatched(b) }
func BenchmarkStageUnbatched(b *testing.B) { BenchStageUnbatched(b) }

// Shared-memory transport (sm://, see shm.go); the TCP twin runs the
// identical shape over loopback sockets for the BENCH_10 comparison.
func BenchmarkStageOverSM(b *testing.B)  { BenchStageOverSM(b) }
func BenchmarkStageOverTCP(b *testing.B) { BenchStageOverTCP(b) }

// Allocs/op ceilings locked in by this change. The pre-change baselines
// (Baseline*Allocs in micro.go) were measured at the seed; these ceilings
// hold the pooled hot paths at their new level with a little headroom for
// runtime jitter — a regression past them fails CI before it fails a
// trajectory comparison.
const (
	ceilStagePutAllocs  = 38.0 // measured 29; >= 50% below the 85.0 baseline
	ceilBulkPullAllocs  = 12.0 // baseline 21.0
	ceilCompositeAllocs = 36.0 // baseline 48.0
	// The delta-compressed stage path: raw-path RPC allocs plus the codec's
	// pooled buffers (XOR scratch, wire frame, server decode target, base
	// copies). Steady state stays pool-served; the headroom absorbs jitter.
	ceilCompressedStageAllocs = 60.0
	// Batched stage path, amortized per block: the enqueue side is an append
	// into the batch's pooled payload plus one record struct, and the frame /
	// response / pull allocations amortize across MaxBlocks blocks — so the
	// per-block budget sits far below the per-RPC ceilings above.
	ceilBatchedStagePerBlockAllocs = 12.0
)

// skipUnderRace: the race detector's instrumentation allocates on its own,
// so the ceilings are asserted only in pure builds (`make bench-smoke` and
// the ci.sh gate both run a non-race pass for exactly this reason).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocs/op ceilings are measured without the race detector")
	}
}

func TestStagePutAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	h, img, cleanup, err := stagePutEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	meta := core.BlockMeta{Field: "v", BlockID: 0, Type: "imagedata"}
	allocs := testing.AllocsPerRun(50, func() {
		if err := stagePutOp(h, img, meta); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("stage put: %.1f allocs/op (baseline %.1f, ceiling %.1f)", allocs, BaselineStagePutAllocs, ceilStagePutAllocs)
	if allocs > ceilStagePutAllocs {
		t.Errorf("stage put allocs/op = %.1f, ceiling %.1f", allocs, ceilStagePutAllocs)
	}
	if allocs > BaselineStagePutAllocs/2 {
		t.Errorf("stage put allocs/op = %.1f, not >= 50%% below the %.1f baseline", allocs, BaselineStagePutAllocs)
	}
}

// TestCompressedStagePutAllocsCeiling holds the delta-compressed stage path
// to a pooled-steady-state allocation budget. The compressed path adds an
// XOR scratch copy, the wire-encode buffer, and the Remember base — all
// bufpool-recycled — on top of the raw path, so its ceiling sits above
// ceilStagePutAllocs but must stay bounded: an unpooled buffer anywhere in
// the codec plumbing shows up here as O(10) extra allocs/op.
func TestCompressedStagePutAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	h, img, cleanup, err := stagePutEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}
	meta := core.BlockMeta{Field: "v", BlockID: 0, Type: "imagedata"}
	// Warm the pools and the delta base history before measuring.
	for i := 0; i < 5; i++ {
		if err := stagePutOp(h, img, meta); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := stagePutOp(h, img, meta); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compressed stage put: %.1f allocs/op (ceiling %.1f)", allocs, ceilCompressedStageAllocs)
	if allocs > ceilCompressedStageAllocs {
		t.Errorf("compressed stage put allocs/op = %.1f, ceiling %.1f", allocs, ceilCompressedStageAllocs)
	}
}

// TestBatchedStageAllocsCeiling holds the coalescing stage path to its
// amortized per-block allocation budget: 64 small blocks staged into v3
// batch frames plus the Flush barrier, measured per block. A fresh
// (unpooled) payload or frame buffer per batch, or any per-block goroutine
// sneaking back in, shows up here immediately.
func TestBatchedStageAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	h, cleanup, err := stageBatchEnv("bench9-allocs")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	h.SetBatching(core.BatchConfig{MaxAge: -1})
	const blocks = 64
	data := make([]byte, 4<<10)
	for i := range data {
		data[i] = byte(i * 131)
	}
	// Warm the pools and the per-target batch plumbing before measuring.
	for i := 0; i < 3; i++ {
		if err := stageBatchOp(h, blocks, data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := stageBatchOp(h, blocks, data); err != nil {
			t.Fatal(err)
		}
	}) / blocks
	t.Logf("batched stage: %.2f allocs/block (ceiling %.1f)", allocs, ceilBatchedStagePerBlockAllocs)
	if allocs > ceilBatchedStagePerBlockAllocs {
		t.Errorf("batched stage allocs/block = %.2f, ceiling %.1f", allocs, ceilBatchedStagePerBlockAllocs)
	}
}

func TestBulkPullAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	puller, bulk, cleanup, err := bulkPullEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	dst := make([]byte, bulk.Size)
	allocs := testing.AllocsPerRun(50, func() {
		if err := puller.PullBulkInto(bulk, dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bulk pull: %.1f allocs/op (baseline %.1f, ceiling %.1f)", allocs, BaselineBulkPullAllocs, ceilBulkPullAllocs)
	if allocs > ceilBulkPullAllocs {
		t.Errorf("bulk pull allocs/op = %.1f, ceiling %.1f", allocs, ceilBulkPullAllocs)
	}
}

func TestCompositeAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	world, imgs := compositeEnv()
	allocs := testing.AllocsPerRun(20, func() {
		if err := compositeOp(world, imgs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("composite: %.1f allocs/op (baseline %.1f, ceiling %.1f)", allocs, BaselineCompositeAllocs, ceilCompositeAllocs)
	if allocs > ceilCompositeAllocs {
		t.Errorf("composite allocs/op = %.1f, ceiling %.1f", allocs, ceilCompositeAllocs)
	}
}
