package main

import (
	"fmt"
	"time"

	"colza/internal/codec"
	"colza/internal/obs"
	"colza/internal/vtk"
)

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timed returns the timed iterations with the given trace state.
func (r *runner) timed(traced bool) []iterRec {
	var out []iterRec
	for _, it := range r.iters {
		if it.traced == traced {
			out = append(out, it)
		}
	}
	return out
}

func (r *runner) endToEnd(setups []float64, rss float64) map[string]metric {
	var iter, stage, exec, join, leave []time.Duration
	var mbps []float64
	for _, it := range r.timed(false) {
		iter = append(iter, it.iter)
		stage = append(stage, it.stage)
		exec = append(exec, it.exec)
		mbps = append(mbps, float64(it.bytes)/1e6/it.stage.Seconds())
	}
	for _, c := range r.cycles {
		join = append(join, c.join)
		leave = append(leave, c.leave)
	}
	m := map[string]metric{
		"setup_s":       {quantile(setups, 0.5), "s"},
		"stage_MBps":    {quantile(mbps, 0.5), "MB/s"},
		"success_ratio": {float64(r.attempted-r.failed) / float64(r.attempted), "ratio"},
		"rss_peak_MB":   {rss, "MB"},
	}
	for name, xs := range map[string][]time.Duration{
		"iter_s": iter, "stage_s": stage, "execute_s": exec, "join_s": join, "leave_s": leave,
	} {
		m[name+".p50"] = metric{quantile(secs(xs), 0.5), "s"}
	}
	// Staging and Execute take well under a millisecond on some workloads;
	// there their p90 moves between runs by more than any usable bound, so
	// the traced run reports those two p90s as per-layer metrics.
	for name, xs := range map[string][]time.Duration{"iter_s": iter, "join_s": join, "leave_s": leave} {
		m[name+".p90"] = metric{quantile(secs(xs), 0.9), "s"}
	}
	return m
}

// smCounters snapshots the counters the stage-sm path assertions use.
func (r *runner) smCounters() [2]int64 {
	regs := r.d.registries()
	return [2]int64{counterTotal(regs, "na.shm.pull.local"), counterTotal(regs, "na.route.tcp_fallback")}
}

// checkSMPath asserts the measured loop rode the sm transport: one
// zero-copy pull out of the client's arena per staged block, and no link
// fell back to TCP.
func (r *runner) checkSMPath(before [2]int64) error {
	after := r.smCounters()
	var blocks int64
	for _, it := range r.iters {
		blocks += int64(len(r.w.frames[it.frameIndex].data))
	}
	if pulls := after[0] - before[0]; pulls != blocks {
		return fmt.Errorf("sm path: %d zero-copy pulls for %d staged blocks", pulls, blocks)
	}
	if fb := after[1] - before[1]; fb != 0 {
		return fmt.Errorf("sm path: %d links fell back to tcp", fb)
	}
	return nil
}

// layerMetrics derives the per-layer metrics of a traced run from the
// harness spans, the obs deltas of traced iterations, and replays of the
// codec, vtk and obs functions over the workload's own inputs.
func (r *runner) layerMetrics() map[string]metric {
	l := &r.delta
	tr := r.tr
	p50 := func(name string) float64 { return quantile(tr.durations(name), 0.5) }
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("core.activate_s.p50", "s", p50("core.activate"))
	set("core.stage_call_s.p50", "s", p50("core.stage"))
	set("core.flush_s.p50", "s", p50("core.flush"))
	set("core.execute_call_s.p50", "s", p50("core.execute"))
	set("core.deactivate_s.p50", "s", p50("core.deactivate"))
	set("core.iter_coverage", "ratio", quantile(tr.coverage("iter"), 0.5))
	set("core.stage.retries", "count", l.perIter(l.counter("colza.stage.retries")))
	set("core.client.retries.busy", "count", l.perIter(l.counter("core.client.retries.busy")))
	set("core.activate.retries", "count", l.perIter(l.counter("colza.activate.retries")))
	flushes := l.counter("colza.stage.batch.flushes")
	set("core.batch.blocks_per_flush", "count", ratio(l.counter("colza.stage.batch.blocks"), flushes))
	set("core.batch.full_ratio", "ratio", ratio(l.counter("colza.stage.batch.full"), flushes))
	set("core.srv_stage_s.sum_per_iter", "s", l.perIter(l.histSum("span.srv.stage", "span.srv.stage_batch")))
	set("core.srv_execute_s.p50", "s", l.histP50("span.srv.execute"))
	set("core.checkpoint.bytes_per_iter", "B", l.perIter(l.counter("core.state.checkpoint.bytes")))
	set("core.checkpoint.count", "count", l.counter("core.state.checkpoint.count"))
	set("core.migrate.errors", "count", float64(counterTotal(r.d.registries(), "core.migrate.errors")))

	var start, create, joinConv, leaveConv []time.Duration
	for _, c := range r.cycles {
		if c.traced {
			start, create = append(start, c.start), append(create, c.create)
			joinConv, leaveConv = append(joinConv, c.joinConv), append(leaveConv, c.leaveConv)
		}
	}
	set("core.server_start_s.p50", "s", quantile(secs(start), 0.5))
	set("core.create_pipeline_s.p50", "s", quantile(secs(create), 0.5))
	set("ssg.join_converge_s.p50", "s", quantile(secs(joinConv), 0.5))
	set("ssg.leave_converge_s.p50", "s", quantile(secs(leaveConv), 0.5))

	set("margo.pool_wait_s.sum_per_iter", "s", l.perIter(l.histSum("margo.pool.wait")))
	set("margo.pool.shed", "count", l.counter("margo.pool.shed"))
	regs := r.d.registries()
	set("margo.pool.queue_depth.max", "count", gaugeMax(regs, "margo.pool.queue.depth"))

	set("mercury.calls_per_iter", "count", l.perIter(l.counter("mercury.call.count")))
	set("mercury.call_s.p50", "s", l.histP50("mercury.call.latency"))
	pullS := l.histSum("mercury.bulk.pull.latency")
	set("mercury.bulk_pull_s.sum_per_iter", "s", l.perIter(pullS))
	set("mercury.bulk_pull_MBps", "MB/s", ratio(l.counter("mercury.bulk.pull.bytes")/1e6, pullS))

	set("na.shm.frames_per_iter", "count", l.perIter(l.counter("na.shm.frames.tx")))
	set("na.shm.ring_stalls", "count", l.counter("na.shm.ring.stalls"))
	set("na.shm.pull_local_per_iter", "count", l.perIter(l.counter("na.shm.pull.local")))
	set("na.route.tcp_fallback", "count", l.counter("na.route.tcp_fallback"))
	set("na.queue_depth.max", "count", gaugeMax(regs, "na.queue.depth"))

	// Client side, codec.bytes.in counts block bytes and codec.bytes.out
	// wire bytes; servers count the reverse.
	set("codec.wire_ratio", "ratio", ratio(float64(l.client["codec.bytes.out"]), float64(l.client["codec.bytes.in"])))
	enc, dec := r.codecReplay()
	set("codec.encode_MBps", "MB/s", enc)
	set("codec.decode_MBps", "MB/s", dec)
	set("codec.delta.fallback", "count", l.counter("codec.delta.fallback"))
	set("codec.delta.mismatch", "count", l.counter("codec.delta.mismatch"))

	// The slowest rank's extract + render + composite, against the
	// client's Execute call; what they leave uncovered is unattributed.
	var extract, raster, composite, cover, gap []float64
	for _, it := range r.timed(true) {
		var ex, rs, cp, slowest float64
		for _, res := range it.res {
			s := res.Summary
			ex, rs, cp = max(ex, s["extract_sec"]), max(rs, s["render_sec"]), max(cp, s["composite_sec"])
			slowest = max(slowest, s["extract_sec"]+s["render_sec"]+s["composite_sec"])
		}
		extract, raster, composite = append(extract, ex), append(raster, rs), append(composite, cp)
		cover = append(cover, slowest/it.exec.Seconds())
		gap = append(gap, it.exec.Seconds()-slowest)
	}
	set("vtk.extract_s.p50", "s", quantile(extract, 0.5))
	set("render.raster_s.p50", "s", quantile(raster, 0.5))
	set("icet.composite_s.p50", "s", quantile(composite, 0.5))
	set("catalyst.execute_coverage", "ratio", quantile(cover, 0.5))
	set("catalyst.unattributed_s.p50", "s", quantile(gap, 0.5))
	var tris int
	for _, o := range r.w.iso {
		tris += o.triangles
	}
	set("vtk.triangles_per_iter", "count", ratio(float64(tris), float64(len(r.w.iso))))
	set("vtk.decode_MBps", "MB/s", r.vtkReplay())

	empty, full := spanReplay()
	set("obs.span_end_ns.empty_ring", "ns", empty)
	set("obs.span_end_ns.full_ring", "ns", full)
	set("obs.spans_per_iter", "count", l.perIter(l.spans()))
	set("obs.trace_dropped", "count", l.perIter(float64(l.dropped)))

	set("go.alloc_MB_per_iter", "MB", l.perIter(float64(l.allocBytes)/1e6))
	set("go.allocs_per_iter", "count", l.perIter(float64(l.allocs)))
	set("go.gc_pause_s.sum_per_iter", "s", l.perIter(float64(l.gcPauseNS)/1e9))

	var traced, plain []float64
	for _, it := range r.iters {
		if it.traced {
			traced = append(traced, it.iter.Seconds())
		} else {
			plain = append(plain, it.iter.Seconds())
		}
	}
	set("bench.trace_overhead", "ratio", ratio(quantile(traced, 0.5), quantile(plain, 0.5))-1)
	var stage, exec []time.Duration
	for _, it := range r.timed(false) {
		stage, exec = append(stage, it.stage), append(exec, it.exec)
	}
	set("stage_s.p90", "s", quantile(secs(stage), 0.9))
	set("execute_s.p90", "s", quantile(secs(exec), 0.9))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayFor repeats fn until at least d has passed and returns the
// repetitions and the elapsed time.
func replayFor(d time.Duration, fn func()) (int, time.Duration) {
	t0 := time.Now()
	n := 0
	for ; n == 0 || time.Since(t0) < d; n++ {
		fn()
	}
	return n, time.Since(t0)
}

const replayTime = 300 * time.Millisecond

// codecReplay times the workload's stage codec's public Encode and Decode
// over its own blocks. For delta the input is each block XORed with the
// same block of the previous frame, the residual the stage path encodes.
func (r *runner) codecReplay() (encMBps, decMBps float64) {
	name := r.w.codec
	if name == "" {
		name = "raw"
	}
	c, err := codec.Lookup(name)
	if err != nil {
		return 0, 0
	}
	frames := r.w.frames
	cur := frames[len(frames)-1]
	var srcs [][]byte
	var total int64
	for i, b := range cur.data {
		src := b
		if name == "delta" && len(frames) > 1 {
			prev := frames[len(frames)-2].data[i]
			src = make([]byte, len(b))
			for j := range b {
				src[j] = b[j] ^ prev[j]
			}
		}
		srcs = append(srcs, src)
		total += int64(len(src))
	}
	encoded := make([][]byte, len(srcs))
	n, el := replayFor(replayTime, func() {
		for i, s := range srcs {
			encoded[i], _ = c.Encode(encoded[i][:0], s)
		}
	})
	encMBps = float64(total) * float64(n) / 1e6 / el.Seconds()
	dst := make([]byte, 0, len(srcs[0]))
	n, el = replayFor(replayTime, func() {
		for i, e := range encoded {
			dst, _ = c.Decode(dst[:0], e, len(srcs[i]))
		}
	})
	decMBps = float64(total) * float64(n) / 1e6 / el.Seconds()
	return encMBps, decMBps
}

// vtkReplay times vtk.DecodeImageData over one frame's blocks, on the
// workloads that stage ImageData.
func (r *runner) vtkReplay() float64 {
	f := r.w.frames[0]
	if len(f.metas) == 0 || f.metas[0].Type != "imagedata" {
		return 0
	}
	n, el := replayFor(replayTime, func() {
		for _, b := range f.data {
			if _, err := vtk.DecodeImageData(b); err != nil {
				panic(err) // the same bytes decoded for the oracle
			}
		}
	})
	return float64(f.bytes) * float64(n) / 1e6 / el.Seconds()
}

// spanReplay times StartSpan/End on a fresh registry and on one whose
// trace ring is full, in nanoseconds per span.
func spanReplay() (empty, full float64) {
	key := obs.SpanKey{Pipeline: "perfbench", Rank: -1}
	per := func(reg *obs.Registry, n int) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			reg.StartSpan("replay", key).End(nil)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	empty = per(obs.NewRegistry(), 4096)
	reg := obs.NewRegistry()
	fillRing(reg)
	full = per(reg, 1024)
	return empty, full
}
