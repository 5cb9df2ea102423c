package bench

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/ssg"
)

// --- Batched stage-path micro-benchmarks (BENCH_9) ------------------------
//
// The stage hot path can now coalesce blocks bound for the same server rank
// into multi-block stage frames (DESIGN.md §12). These benchmarks pin
// the result on the gray-scott-style small-block shape that motivated the
// change: many little blocks per iteration, where the per-block RPC
// round-trip — not bandwidth — dominates. colza-bench emits the comparison
// as the BENCH_9.json trajectory point; the issue's acceptance bar is a
// >= 2x throughput win for the batched path.

// Full-scale batched-stage shape: 4096 blocks of 64 KiB per iteration.
const (
	stageBatchBlocksFull = 4096
	stageBatchBlockLen   = 64 << 10
)

// stageBatchEnv builds the single-server distributed deployment the batched
// benchmarks drive: one inproc daemon forming a real SSG group (so the
// collective handle can Activate), a sink pipeline, and a distributed client
// handle with iteration 1 active. The solo handle of stagePutEnv cannot be
// reused here — batching rides the distributed handle's placement and
// flush-barrier machinery.
func stageBatchEnv(name string) (h *core.DistributedPipelineHandle, cleanup func(), err error) {
	net := na.NewInprocNetwork()
	srv, err := core.StartInprocServer(net, name+"-srv", core.ServerConfig{
		GroupName: name,
		SSG:       ssg.Config{GossipPeriod: 10 * time.Millisecond},
	})
	if err != nil {
		return nil, nil, err
	}
	cEP, err := net.Listen(name + "-cli")
	if err != nil {
		srv.Shutdown()
		return nil, nil, err
	}
	cmi := margo.NewInstance(cEP)
	cli := core.NewClient(cmi)
	admin := core.NewAdminClient(cmi)
	if err := admin.CreatePipeline(srv.Addr(), "bench", "bench/sink", nil); err != nil {
		cmi.Finalize()
		srv.Shutdown()
		return nil, nil, err
	}
	h = cli.Handle("bench", srv.Addr())
	h.SetTimeout(10 * time.Second)
	if _, err := h.Activate(1); err != nil {
		h.Close()
		cmi.Finalize()
		srv.Shutdown()
		return nil, nil, err
	}
	cleanup = func() {
		h.Close()
		cmi.Finalize()
		srv.Shutdown()
	}
	return h, cleanup, nil
}

// stageBatchOp stages one iteration's worth of small blocks into the active
// iteration and drains the handle. On the batched handle the Stage calls
// enqueue into coalesced frames and Flush is the barrier; unbatched, each
// Stage is its own one-block RPC round-trip and Flush is a no-op.
func stageBatchOp(h *core.DistributedPipelineHandle, blocks int, data []byte) error {
	meta := core.BlockMeta{Field: "v", Type: "raw"}
	for b := 0; b < blocks; b++ {
		meta.BlockID = b
		if err := h.Stage(1, meta, data); err != nil {
			return fmt.Errorf("stage block %d: %w", b, err)
		}
	}
	return h.Flush(1)
}

func benchStageShape(b *testing.B, name string, batched bool, blocks, blockLen int) {
	h, cleanup, err := stageBatchEnv(name)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if batched {
		// 64-block frames (4MiB payload) with a deeper window than the
		// defaults: on this all-small-blocks shape the size trigger would
		// otherwise cut frames at 16 blocks and leave pipeline slack unused.
		h.SetBatching(core.BatchConfig{MaxBytes: 4 << 20, MaxAge: -1, Window: 8})
	}
	data := bufpool.Get(blockLen)
	defer bufpool.Put(data)
	for i := range data {
		data[i] = byte(i * 131)
	}
	b.SetBytes(int64(blocks) * int64(blockLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stageBatchOp(h, blocks, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchStageBatched measures the coalescing stage path on the full
// 4096-block/64KiB shape: enqueue-copy into shared batch payloads, v3
// multi-block frames, windowed in-flight batches, Flush barrier.
func BenchStageBatched(b *testing.B) {
	benchStageShape(b, "bench9-batched", true, stageBatchBlocksFull, stageBatchBlockLen)
}

// BenchStageUnbatched is the per-block baseline on the identical shape:
// one synchronous stage RPC + bulk pull per block.
func BenchStageUnbatched(b *testing.B) {
	benchStageShape(b, "bench9-unbatched", false, stageBatchBlocksFull, stageBatchBlockLen)
}

// StageBatchPoint is the BENCH_9.json trajectory point: batched vs
// unbatched stage throughput on one shape.
type StageBatchPoint struct {
	Shape            string  `json:"shape"`
	Blocks           int     `json:"blocks"`
	BlockBytes       int     `json:"block_bytes"`
	BatchedMBps      float64 `json:"batched_mb_per_s"`
	UnbatchedMBps    float64 `json:"unbatched_mb_per_s"`
	SpeedupX         float64 `json:"speedup_x"`
	BatchedNsPerOp   int64   `json:"batched_ns_per_op"`
	UnbatchedNsPerOp int64   `json:"unbatched_ns_per_op"`
	BatchedAllocs    float64 `json:"batched_allocs_per_block"`
}

// RunStageBatch benchmarks both stage paths on the same shape and returns
// the comparison. Quick mode shrinks the block count (not the block size, so
// the per-block overhead ratio the experiment measures is preserved).
func RunStageBatch(quick bool) StageBatchPoint {
	blocks := stageBatchBlocksFull
	if quick {
		blocks = 256
	}
	run := func(name string, batched bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			benchStageShape(b, name, batched, blocks, stageBatchBlockLen)
		})
	}
	batched := run("bench9j-batched", true)
	unbatched := run("bench9j-unbatched", false)
	opBytes := float64(blocks) * float64(stageBatchBlockLen)
	mbps := func(r testing.BenchmarkResult) float64 {
		if r.NsPerOp() <= 0 {
			return 0
		}
		return opBytes / float64(r.NsPerOp()) * 1e9 / (1 << 20)
	}
	p := StageBatchPoint{
		Shape:            fmt.Sprintf("%d x %s", blocks, sizeLabel(stageBatchBlockLen)),
		Blocks:           blocks,
		BlockBytes:       stageBatchBlockLen,
		BatchedMBps:      mbps(batched),
		UnbatchedMBps:    mbps(unbatched),
		BatchedNsPerOp:   batched.NsPerOp(),
		UnbatchedNsPerOp: unbatched.NsPerOp(),
		BatchedAllocs:    float64(batched.AllocsPerOp()) / float64(blocks),
	}
	if p.BatchedNsPerOp > 0 {
		p.SpeedupX = float64(p.UnbatchedNsPerOp) / float64(p.BatchedNsPerOp)
	}
	return p
}

// MicroStageBatch is the "batch" experiment: the batched-vs-unbatched stage
// comparison as a table (colza-bench -out) — use -bench9json to also write
// the machine-readable BENCH_9.json point.
func MicroStageBatch(quick bool) (*Table, error) {
	p := RunStageBatch(quick)
	t := &Table{
		ID:      "BENCH 9",
		Title:   "batched stage path: throughput vs per-block staging",
		Note:    "same gray-scott-style small-block shape on both paths; batched = multi-block frames + window, unbatched = one RPC per block",
		Columns: []string{"shape", "batched_MB/s", "unbatched_MB/s", "speedup_x", "batched_allocs/block"},
	}
	t.Add(p.Shape,
		fmt.Sprintf("%.1f", p.BatchedMBps),
		fmt.Sprintf("%.1f", p.UnbatchedMBps),
		fmt.Sprintf("%.2f", p.SpeedupX),
		fmt.Sprintf("%.1f", p.BatchedAllocs))
	return t, nil
}

// StageBatchTrajectoryJSON renders the BENCH_9.json payload.
func StageBatchTrajectoryJSON(quick bool) ([]byte, error) {
	doc := struct {
		Issue int             `json:"issue"`
		Point StageBatchPoint `json:"point"`
	}{Issue: 9, Point: RunStageBatch(quick)}
	return json.MarshalIndent(doc, "", "  ")
}
