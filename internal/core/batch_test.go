package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/obs"
)

// failBlockPipeline is a backend whose Stage rejects one specific block ID,
// so tests can watch the batch path demultiplex a single block's failure
// without failing its batch-mates.
type failBlockPipeline struct {
	mu     sync.Mutex
	staged int
}

func (f *failBlockPipeline) Activate(ctx IterationContext) error { return nil }

func (f *failBlockPipeline) Stage(it uint64, meta BlockMeta, data []byte) error {
	if meta.BlockID == 1 {
		return fmt.Errorf("failblock: synthetic stage failure for block %d", meta.BlockID)
	}
	f.mu.Lock()
	f.staged++
	f.mu.Unlock()
	return nil
}

func (f *failBlockPipeline) Execute(it uint64) (ExecResult, error) { return ExecResult{}, nil }
func (f *failBlockPipeline) Deactivate(it uint64) error            { return nil }
func (f *failBlockPipeline) Destroy() error                        { return nil }

func init() {
	RegisterPipelineType("failblock", func(cfg json.RawMessage) (Backend, error) {
		return &failBlockPipeline{}, nil
	})
}

// batchedHandle builds a distributed handle with batching engaged and a
// fresh client-side registry for counter assertions.
func batchedHandle(t *testing.T, d *deployment, cfg BatchConfig) (*DistributedPipelineHandle, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	d.client.SetObserver(reg)
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	h.SetBatching(cfg)
	t.Cleanup(h.Close)
	return h, reg
}

func TestStageBatchedLifecycle(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, BatchConfig{MaxBlocks: 4, MaxAge: -1, Window: 2})

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	const blocks = 9
	var total float64
	for b := 0; b < blocks; b++ {
		data := bytes.Repeat([]byte{byte(b)}, 100*(b+1))
		total += float64(len(data))
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Summary["total_bytes"] != total {
		t.Fatalf("results = %+v, want total %v", res, total)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.batch.blocks{pipeline=viz}"]; got != blocks {
		t.Errorf("batch.blocks = %d, want %d", got, blocks)
	}
	if got := snap.Counters["colza.stage.batch.bytes{pipeline=viz}"]; got != int64(total) {
		t.Errorf("batch.bytes = %d, want %v", got, total)
	}
	// 9 blocks over 2 ranks with MaxBlocks 4: at least one size-triggered
	// flush, and every flush is counted.
	full := snap.Counters["colza.stage.batch.full{pipeline=viz}"]
	flushes := snap.Counters["colza.stage.batch.flushes{pipeline=viz}"]
	if full < 1 || flushes < full {
		t.Errorf("full=%d flushes=%d, want full >= 1 and flushes >= full", full, flushes)
	}
	if got := snap.Counters["colza.stage.batch.age{pipeline=viz}"]; got != 0 {
		t.Errorf("age trigger fired %d times with MaxAge < 0", got)
	}
	if g := snap.Gauges["colza.stage.batch.window{pipeline=viz}"]; g.Max > 2 {
		t.Errorf("window depth peaked at %d, want <= 2", g.Max)
	}
	if got := snap.Counters["colza.stage.blocks{pipeline=viz}"]; got != blocks {
		t.Errorf("stage.blocks = %d, want %d", got, blocks)
	}

	// Execute's implicit barrier: no explicit Flush this iteration.
	if _, err := h.Activate(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Stage(2, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	res, err = h.Execute(2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Summary["total_bytes"] != 64 {
		t.Fatalf("iteration 2 results = %+v", res)
	}
	if err := h.Deactivate(2); err != nil {
		t.Fatal(err)
	}
}

func TestStageBatchedAgeTrigger(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, BatchConfig{MaxBlocks: 1 << 20, MaxAge: 5 * time.Millisecond})

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Stage(1, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, bytes.Repeat([]byte{3}, 128)); err != nil {
		t.Fatal(err)
	}
	// No size trigger can fire and no barrier is issued: only the age timer
	// can get this block to the server.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=viz}"] >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=viz}"]; got != 1 {
		t.Fatalf("server staged %d blocks, want 1 (age trigger did not fire)", got)
	}
	if got := reg.Snapshot().Counters["colza.stage.batch.age{pipeline=viz}"]; got != 1 {
		t.Errorf("age counter = %d, want 1", got)
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

func TestNBStageBatchedResolvesOnBatchCompletion(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, _ := batchedHandle(t, d, BatchConfig{MaxBlocks: 4, MaxAge: -1})

	// Before activate the Async resolves with the immediate error instead of
	// hanging in a batch that will never flush.
	if _, err := h.NBStage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1}).Wait(); err == nil {
		t.Fatal("NBStage before activate resolved nil")
	}

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	var asyncs []*Async
	for b := 0; b < 4; b++ { // exactly one size-triggered batch
		asyncs = append(asyncs, h.NBStage(1, BlockMeta{Field: "v", BlockID: b * 10, Type: "raw"}, bytes.Repeat([]byte{byte(b)}, 32)))
	}
	for i, a := range asyncs {
		if _, err := a.Wait(); err != nil {
			t.Fatalf("async %d: %v", i, err)
		}
	}
	// A straggler below every trigger resolves at the explicit barrier.
	a := h.NBStage(1, BlockMeta{Field: "v", BlockID: 99, Type: "raw"}, []byte{7})
	if a.Test() {
		t.Fatal("straggler resolved before any trigger or barrier")
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

// TestStageBatchedPerBlockErrorDemux: a block the backend rejects fails
// alone on every stage sender — its neighbours land, and the rejection
// carries the backend's message, counts colza.stage.failed once and never
// burns a stage retry. Batched sync Stage defers the failure to the
// barrier; unbatched and solo Stage return it at once; NBStage resolves it
// on the block's own Async.
func TestStageBatchedPerBlockErrorDemux(t *testing.T) {
	for _, mode := range []string{"batched", "unbatched", "solo"} {
		t.Run(mode, func(t *testing.T) {
			d := deploy(t, 1)
			if err := d.admin.CreatePipeline(d.servers[0].Addr(), "fb", "failblock", nil); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			d.client.SetObserver(reg)
			meta := func(b int) BlockMeta { return BlockMeta{Field: "v", BlockID: b, Type: "raw"} }
			var h interface {
				Stage(it uint64, meta BlockMeta, data []byte) error
				NBStage(it uint64, meta BlockMeta, data []byte) *Async
			}
			barrier := func() error { return nil }
			if mode == "solo" {
				sh := d.client.SoloHandle("fb", d.servers[0].Addr())
				sh.SetTimeout(2 * time.Second)
				if err := sh.Activate(1); err != nil {
					t.Fatal(err)
				}
				h = sh
			} else {
				dh := d.client.Handle("fb", d.servers[0].Addr())
				dh.SetTimeout(2 * time.Second)
				if mode == "batched" {
					dh.SetBatching(BatchConfig{MaxBlocks: 64, MaxAge: -1})
				}
				t.Cleanup(dh.Close)
				if _, err := dh.Activate(1); err != nil {
					t.Fatal(err)
				}
				h, barrier = dh, func() error { return dh.Flush(1) }
			}
			isBlockFailure := func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "synthetic stage failure")
			}

			// Block 1 fails on the backend; blocks 0, 2, 3 (its batch-mates
			// when batched) must land anyway.
			for b := 0; b < 4; b++ {
				err := h.Stage(1, meta(b), bytes.Repeat([]byte{byte(b)}, 16))
				switch {
				case b == 1 && mode != "batched":
					if !isBlockFailure(err) || Classify(err) != ClassRemote {
						t.Fatalf("stage of the rejected block = %v (class %v), want the backend's remote error", err, Classify(err))
					}
				case err != nil:
					t.Fatalf("stage %d: %v", b, err)
				}
			}
			if err := barrier(); mode == "batched" && !isBlockFailure(err) {
				t.Fatalf("flush error = %v, want the synthetic block failure", err)
			} else if mode != "batched" && err != nil {
				t.Fatalf("flush = %v, want nil: unbatched failures never reach the barrier", err)
			}
			if mode != "solo" {
				snap := reg.Snapshot()
				if got := snap.Counters["colza.stage.blocks{pipeline=fb}"]; got != 3 {
					t.Errorf("stage.blocks = %d, want 3", got)
				}
				if got := snap.Counters["colza.stage.failed{pipeline=fb}"]; got != 1 {
					t.Errorf("stage.failed = %d, want 1", got)
				}
				// One bad block must not burn a retry, for itself or its
				// batch-mates.
				if got := snap.Counters["colza.stage.retries{pipeline=fb}"]; got != 0 {
					t.Errorf("stage.retries = %d, want 0", got)
				}
			}
			if got := d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=fb}"]; got != 3 {
				t.Errorf("server staged %d blocks, want 3", got)
			}

			// The NBStage flavor: the failing block's own Async carries the
			// error, its neighbour resolves nil, and the barrier is clean.
			bad, good := h.NBStage(1, meta(1), []byte{1}), h.NBStage(1, meta(2), []byte{2})
			if err := barrier(); err != nil {
				t.Fatalf("NBStage failures must not reach the barrier: %v", err)
			}
			if _, err := bad.Wait(); !isBlockFailure(err) {
				t.Fatalf("failing block async = %v", err)
			}
			if _, err := good.Wait(); err != nil {
				t.Fatalf("neighbour async = %v", err)
			}
		})
	}
}

func TestStageBatchedDeltaMismatchFallback(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, BatchConfig{MaxBlocks: 8, MaxAge: -1})
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}

	data := func(b, it int) []byte {
		buf := bytes.Repeat([]byte{byte(b)}, 256)
		buf[0] = byte(it) // differ per iteration so the delta is non-trivial
		return buf
	}
	stageIter := func(it uint64) {
		t.Helper()
		if _, err := h.Activate(it); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 2; b++ {
			if err := h.Stage(it, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data(b, int(it))); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Flush(it); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatal(err)
		}
	}
	stageIter(1) // no base yet: self-contained deltas, bases remembered

	// The server forgets every base (as after an eviction or a membership
	// change); the client still remembers iteration 1 and will send
	// based deltas the server must refuse per block.
	d.servers[0].Provider.deltas.InvalidatePipeline("viz")
	stageIter(2) // per-block mismatch -> self-contained re-stage, no error

	snap := reg.Snapshot()
	if got := snap.Counters["codec.delta.fallback{pipeline=viz}"]; got < 1 {
		t.Errorf("delta fallback counter = %d, want >= 1", got)
	}
	if got := snap.Counters["colza.stage.blocks{pipeline=viz}"]; got != 4 {
		t.Errorf("stage.blocks = %d, want 4", got)
	}
	if got := d.servers[0].Obs.Snapshot().Counters["codec.delta.mismatch{pipeline=viz}"]; got < 1 {
		t.Errorf("server mismatch counter = %d, want >= 1", got)
	}
}

func TestStageBatchedIterationChangeFlushesOldBatch(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, BatchConfig{MaxBlocks: 64, MaxAge: -1})

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Stage(1, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// A block for a later iteration on the same rank pushes the iteration-1
	// batch out first: frames never mix iterations. (The iteration-2 frame
	// itself fails — the server is still on iteration 1 — which is exactly
	// the stale-iteration protocol error.)
	if err := h.Stage(2, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, []byte{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	err := h.Flush(2)
	if err == nil || !strings.Contains(err.Error(), "no active iteration") {
		t.Fatalf("stale-iteration flush = %v, want the server's not-active refusal", err)
	}
	// The iteration-1 block landed despite the stale batch-mate.
	if got := d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=viz}"]; got != 1 {
		t.Errorf("server staged %d blocks, want 1", got)
	}
	if got := reg.Snapshot().Counters["colza.stage.batch.flushes{pipeline=viz}"]; got != 2 {
		t.Errorf("flushes = %d, want 2 (one per iteration)", got)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

// TestNBStageBoundedGoroutines is the regression for the goroutine-per-call
// NBStage: 10k calls must never hold more than the stage window's worth of
// goroutines, on the unbatched distributed path, the batched path, and the
// solo handle alike.
func TestNBStageBoundedGoroutines(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")

	const calls = 10000
	run := func(t *testing.T, stage func(i int) *Async) {
		t.Helper()
		baseline := runtime.NumGoroutine()
		peak := 0
		asyncs := make([]*Async, 0, calls)
		for i := 0; i < calls; i++ {
			asyncs = append(asyncs, stage(i))
			if i%128 == 0 {
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
		for i, a := range asyncs {
			if _, err := a.Wait(); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		// The window bounds live goroutines; the slack absorbs server-side
		// handler and transport goroutines that come and go per RPC.
		if limit := baseline + nbStageWindow + 112; peak > limit {
			t.Fatalf("goroutines peaked at %d (baseline %d, limit %d): NBStage is spawning per call", peak, baseline, limit)
		}
	}

	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	t.Run("distributed", func(t *testing.T) {
		h := d.client.Handle("viz", d.servers[0].Addr())
		h.SetTimeout(5 * time.Second)
		t.Cleanup(h.Close)
		if _, err := h.Activate(1); err != nil {
			t.Fatal(err)
		}
		run(t, func(i int) *Async { return h.NBStage(1, BlockMeta{Field: "v", BlockID: i, Type: "raw"}, data) })
		if _, err := h.Execute(1); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(1); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("batched", func(t *testing.T) {
		h := d.client.Handle("viz", d.servers[0].Addr())
		h.SetTimeout(5 * time.Second)
		h.SetBatching(BatchConfig{MaxBlocks: 32, MaxAge: -1, Window: 4})
		t.Cleanup(h.Close)
		if _, err := h.Activate(2); err != nil {
			t.Fatal(err)
		}
		var flushErr error
		run(t, func(i int) *Async {
			a := h.NBStage(2, BlockMeta{Field: "v", BlockID: i, Type: "raw"}, data)
			if i == calls-1 {
				flushErr = h.Flush(2) // resolve the tail batch so Wait cannot hang
			}
			return a
		})
		if flushErr != nil {
			t.Fatal(flushErr)
		}
		if _, err := h.Execute(2); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(2); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("solo", func(t *testing.T) {
		h := d.client.SoloHandle("viz", d.servers[0].Addr())
		h.SetTimeout(5 * time.Second)
		if err := h.Activate(3); err != nil {
			t.Fatal(err)
		}
		run(t, func(i int) *Async { return h.NBStage(3, BlockMeta{Field: "v", BlockID: i, Type: "raw"}, data) })
		if _, err := h.Execute(3); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(3); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatcherDrainNoGoroutineLeak: after a batched burst drains and the
// handle closes, no batcher goroutine may linger.
func TestBatcherDrainNoGoroutineLeak(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	baseline := runtime.NumGoroutine()

	h, _ := batchedHandle(t, d, BatchConfig{MaxBlocks: 8, MaxAge: time.Millisecond, Window: 4})
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 200; b++ {
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, bytes.Repeat([]byte{byte(b)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	h.Close()

	deadline := time.Now().Add(2 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		if n = runtime.NumGoroutine(); n <= baseline+4 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines settled at %d, baseline %d: batcher leaked", n, baseline)
}

// TestStageCloseCancelsRetryBackoff: a Stage serving out a long retry
// backoff must return promptly when the handle closes.
func TestStageCloseCancelsRetryBackoff(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(time.Second)
	// Every attempt fails (nobody listens at the view's address), and the
	// backoff alone would hold Stage for half a minute.
	h.SetView(MemberView{Epoch: 1, Members: []ServerInfo{{RPC: "inproc://nowhere"}}})
	h.SetStageRetry(RetryPolicy{Max: 4, Base: 30 * time.Second, Cap: 60 * time.Second})

	errCh := make(chan error, 1)
	go func() {
		errCh <- h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1})
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	start := time.Now()
	h.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrHandleClosed) {
			t.Fatalf("stage returned %v, want ErrHandleClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("stage took %v after close, want prompt return", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage still sleeping its backoff 5s after the handle closed")
	}
}

// TestActivateCloseCancelsRetryBackoff: an Activate backing off between
// view retries against an unreachable contact returns promptly, with
// ErrHandleClosed, when the handle closes.
func TestActivateCloseCancelsRetryBackoff(t *testing.T) {
	d := deploy(t, 1)
	h := d.client.Handle("viz", "inproc://nowhere")
	h.SetTimeout(time.Second)
	h.mu.Lock()
	h.viewRetry = RetryPolicy{Max: 8, Base: 30 * time.Second, Cap: 60 * time.Second}
	h.mu.Unlock()

	errCh := make(chan error, 1)
	go func() {
		_, err := h.Activate(1)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first refresh fail and the backoff start
	start := time.Now()
	h.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrHandleClosed) {
			t.Fatalf("activate returned %v, want ErrHandleClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("activate took %v after close, want prompt return", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("activate still sleeping its backoff 5s after the handle closed")
	}
}

// The batched flavor: an in-flight batch retrying against a dead address
// drains promptly on close, and the barrier reports the closed handle.
func TestBatchedCloseCancelsRetryBackoff(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, _ := batchedHandle(t, d, BatchConfig{MaxBlocks: 1, MaxAge: -1})
	h.SetView(MemberView{Epoch: 1, Members: []ServerInfo{{RPC: "inproc://nowhere"}}})
	h.SetStageRetry(RetryPolicy{Max: 4, Base: 30 * time.Second, Cap: 60 * time.Second})

	// MaxBlocks 1: the enqueue dispatches immediately and the send goroutine
	// enters its backoff.
	if err := h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	h.Close()
	err := h.Flush(1)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("flush took %v after close, want prompt drain", elapsed)
	}
	if !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("flush after close = %v, want ErrHandleClosed", err)
	}
	// A closed handle refuses further staging outright.
	if err := h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{2}); !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("stage on closed handle = %v, want ErrHandleClosed", err)
	}
}

// TestMigrateCallBackoffInjectable covers the migrate retry's backoff
// through the provider's shared sleep seam: the schedule is observable
// without one real sleep, failures count, and a remote refusal is final
// immediately.
func TestMigrateCallBackoffInjectable(t *testing.T) {
	d := deploy(t, 2)
	p := d.servers[0].Provider
	var mu sync.Mutex
	var sleeps []time.Duration
	p.retrySleep = func(d time.Duration, _ <-chan struct{}) time.Duration {
		mu.Lock()
		sleeps = append(sleeps, d)
		mu.Unlock()
		return d
	}
	payload, _ := json.Marshal(migrateMsg{Pipeline: "ghost", State: []byte("s")})

	errsBefore := d.servers[0].Obs.Snapshot().Counters["core.migrate.errors"]
	start := time.Now()
	if err := p.migrateCall("inproc://nowhere", payload); err == nil {
		t.Fatal("migrate to a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("migrateCall took %v: the backoff really slept despite the injected clock", elapsed)
	}
	mu.Lock()
	got := append([]time.Duration(nil), sleeps...)
	mu.Unlock()
	// Two attempts, one backoff between them: Base 50ms plus up to 50% jitter.
	if len(got) != 1 {
		t.Fatalf("recorded %d sleeps (%v), want 1", len(got), got)
	}
	if got[0] < 50*time.Millisecond || got[0] >= 75*time.Millisecond {
		t.Fatalf("backoff %v outside [50ms, 75ms)", got[0])
	}
	if errs := d.servers[0].Obs.Snapshot().Counters["core.migrate.errors"]; errs != errsBefore+2 {
		t.Fatalf("migrate errors advanced by %d, want 2 (one per failed attempt)", errs-errsBefore)
	}
	if slept := d.servers[0].Obs.Counter("core.retry.slept_ns", "site", "migrate").Value(); slept != int64(got[0]) {
		t.Fatalf("core.retry.slept_ns{site=migrate} = %d, want the injected %d", slept, got[0])
	}

	// A live peer that refuses (unknown pipeline) answers ClassRemote:
	// final for this target, no backoff at all.
	if err := p.migrateCall(d.servers[1].Addr(), payload); err == nil {
		t.Fatal("migrate of an unknown pipeline succeeded")
	}
	mu.Lock()
	after := len(sleeps)
	mu.Unlock()
	if after != 1 {
		t.Fatalf("remote refusal slept %d times, want 0", after-1)
	}
}

// TestBatchConfigDefaults pins the documented zero-value defaults — the
// knobs the cmd flags and SetBatching callers lean on when they only set
// some of the fields.
func TestBatchConfigDefaults(t *testing.T) {
	cfg := BatchConfig{}.withDefaults()
	want := BatchConfig{MaxBlocks: 64, MaxBytes: 1 << 20, MaxAge: 2 * time.Millisecond, Window: 4}
	if cfg != want {
		t.Fatalf("withDefaults() = %+v, want %+v", cfg, want)
	}
	// Negative MaxAge survives (age trigger disabled), explicit values stick.
	cfg = BatchConfig{MaxBlocks: 7, MaxBytes: 123, MaxAge: -1, Window: 2}.withDefaults()
	if cfg.MaxAge != -1 || cfg.MaxBlocks != 7 || cfg.MaxBytes != 123 || cfg.Window != 2 {
		t.Fatalf("withDefaults() clobbered explicit config: %+v", cfg)
	}
}

// TestBatchedCloseFailsPendingBlocks closes a handle while blocks sit in a
// never-triggering pending batch: every undelivered block must fail with
// ErrHandleClosed (sync errors at the barrier, NBStage on its Async) and the
// batch-owned buffers — including the delta path's remembered originals —
// must go back to the pool rather than leak.
func TestBatchedCloseFailsPendingBlocks(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h, _ := batchedHandle(t, d, BatchConfig{MaxBlocks: 1 << 20, MaxAge: -1})
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5a}, 2048)
	for b := 0; b < 4; b++ {
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatal(err)
		}
	}
	a := h.NBStage(1, BlockMeta{Field: "v", BlockID: 4, Type: "raw"}, data)
	h.Close()
	if _, err := a.Wait(); !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("pending NBStage after close: %v, want ErrHandleClosed", err)
	}
	if err := h.Flush(1); !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("Flush after close: %v, want the pending blocks' ErrHandleClosed", err)
	}
}

// TestStageBatchedInvalidPlacement: a broken placement policy must fail the
// block immediately — sync Stage returns the error, nothing is enqueued.
func TestStageBatchedInvalidPlacement(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, BatchConfig{MaxBlocks: 1 << 20, MaxAge: -1})
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	h.SetPlacement(func(BlockMeta, int) int { return -1 })
	err := h.Stage(1, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, []byte{1})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("stage with invalid placement: %v, want invalid-rank error", err)
	}
	if got := reg.Snapshot().Counters["colza.stage.batch.blocks{pipeline=viz}"]; got != 0 {
		t.Fatalf("invalid-placement block was enqueued (batch.blocks = %d)", got)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}
