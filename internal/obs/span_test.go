package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an advanceable virtual clock, the same shape dessim provides.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) clock() Clock { return func() time.Duration { return f.now } }

func TestSpanLifecycle(t *testing.T) {
	fc := &fakeClock{}
	r := NewRegistry()
	r.SetClock(fc.clock())

	sp := r.StartSpan("stage", SpanKey{Pipeline: "viz", Iteration: 3, Rank: 1})
	fc.now = 5 * time.Millisecond
	if dur := sp.End(nil); dur != 5*time.Millisecond {
		t.Fatalf("dur = %v, want 5ms", dur)
	}

	sp = r.StartSpan("stage", SpanKey{Pipeline: "viz", Iteration: 4, Rank: 1})
	fc.now += 7 * time.Millisecond
	sp.End(errors.New("dropped"))

	h := r.Histogram("span.stage", "pipeline", "viz").Snapshot()
	if h.Count != 2 {
		t.Fatalf("span histogram count = %d, want 2", h.Count)
	}
	if got := r.Counter("span.stage.errors", "pipeline", "viz").Value(); got != 1 {
		t.Fatalf("error counter = %d, want 1", got)
	}

	recs := r.Trace()
	if len(recs) != 2 {
		t.Fatalf("trace len = %d, want 2", len(recs))
	}
	if recs[0].Name != "stage" || recs[0].Pipeline != "viz" || recs[0].Iteration != 3 ||
		recs[0].Rank != 1 || recs[0].DurNS != int64(5*time.Millisecond) || recs[0].Err != "" {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].Err != "dropped" || recs[1].StartNS != int64(5*time.Millisecond) {
		t.Fatalf("second record: %+v", recs[1])
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *Registry
	sp := r.StartSpan("x", SpanKey{})
	if sp != nil {
		t.Fatal("nil registry should yield nil span")
	}
	if sp.End(nil) != 0 {
		t.Fatal("nil span End should be a no-op")
	}
}

func TestSpanWithoutPipelineLabel(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("activate", SpanKey{Iteration: 1, Rank: -1}).End(nil)
	if r.Histogram("span.activate").Count() != 1 {
		t.Fatal("pipeline-less span should record under the bare name")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("stage", SpanKey{Pipeline: "viz", Iteration: 1, Rank: 0}).End(nil)
	r.StartSpan("execute", SpanKey{Pipeline: "viz", Iteration: 1, Rank: 2}).End(errors.New("boom"))

	var sb strings.Builder
	if err := r.WriteTraceJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(sb.String()), "\n") + 1; n != 2 {
		t.Fatalf("expected 2 JSON lines, got %d:\n%s", n, sb.String())
	}
	got, err := ParseTraceJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := r.Trace()
	if len(got) != len(want) {
		t.Fatalf("round-trip length %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestVirtualClockSpansAreDeterministic(t *testing.T) {
	run := func() Snapshot {
		fc := &fakeClock{}
		r := NewRegistry()
		r.SetClock(fc.clock())
		for i := uint64(0); i < 50; i++ {
			sp := r.StartSpan("stage", SpanKey{Pipeline: "p", Iteration: i})
			fc.now += time.Duration(i%7+1) * time.Millisecond
			sp.End(nil)
		}
		return r.Snapshot()
	}
	a, b := run(), run()
	if a.Histograms["span.stage{pipeline=p}"] != b.Histograms["span.stage{pipeline=p}"] {
		t.Fatal("virtual-clock histograms must be identical across identical runs")
	}
}

// iterations lists the records' iteration numbers, oldest first.
func iterations(recs []SpanRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i, rec := range recs {
		out[i] = rec.Iteration
	}
	return out
}

// wantNewest checks the trace holds exactly iterations [from, to) in
// completion order.
func wantNewest(t *testing.T, r *Registry, from, to uint64) {
	t.Helper()
	got := iterations(r.Trace())
	if uint64(len(got)) != to-from {
		t.Fatalf("trace holds %v, want iterations %d..%d", got, from, to-1)
	}
	for i, it := range got {
		if it != from+uint64(i) {
			t.Fatalf("trace holds %v, want iterations %d..%d", got, from, to-1)
		}
	}
}

// TestTraceRingEviction: across several full wraps the ring holds the
// newest spans in completion order and counts every eviction.
func TestTraceRingEviction(t *testing.T) {
	const capacity = 5
	r := NewRegistry()
	r.SetTraceCapacity(capacity)
	for n := uint64(1); n <= 4*capacity+3; n++ {
		r.StartSpan("s", SpanKey{Iteration: n - 1}).End(nil)
		from := uint64(0)
		if n > capacity {
			from = n - capacity
		}
		wantNewest(t, r, from, n)
		if got := r.TraceDropped(); got != int64(from) {
			t.Fatalf("after %d spans dropped = %d, want %d", n, got, from)
		}
	}
}

// fill ends one span per iteration in [from, to).
func fill(r *Registry, from, to uint64) {
	for i := from; i < to; i++ {
		r.StartSpan("s", SpanKey{Iteration: i}).End(nil)
	}
}

func TestSetTraceCapacityOnWrappedRing(t *testing.T) {
	t.Run("shrink", func(t *testing.T) {
		r := NewRegistry()
		r.SetTraceCapacity(4)
		fill(r, 0, 10) // wrapped: head is mid-slice
		r.SetTraceCapacity(3)
		wantNewest(t, r, 7, 10)
		if got := r.TraceDropped(); got != 7 {
			t.Fatalf("dropped = %d, want 6 evicted + 1 trimmed", got)
		}
		fill(r, 10, 15)
		wantNewest(t, r, 12, 15)
		if got := r.TraceDropped(); got != 12 {
			t.Fatalf("dropped = %d, want 12", got)
		}
	})

	t.Run("grow", func(t *testing.T) {
		r := NewRegistry()
		r.SetTraceCapacity(4)
		fill(r, 0, 10)
		r.SetTraceCapacity(7)
		wantNewest(t, r, 6, 10)
		if got := r.TraceDropped(); got != 6 {
			t.Fatalf("dropped = %d, want 6", got)
		}
		fill(r, 10, 13) // fills the new room without evicting
		wantNewest(t, r, 6, 13)
		if got := r.TraceDropped(); got != 6 {
			t.Fatalf("dropped = %d, want 6", got)
		}
		fill(r, 13, 25) // wraps the grown ring
		wantNewest(t, r, 18, 25)
		if got := r.TraceDropped(); got != 18 {
			t.Fatalf("dropped = %d, want 18", got)
		}
	})
}

func TestTraceReturnsCopy(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(3)
	fill(r, 0, 5)
	snap := r.Trace()
	fill(r, 5, 9)
	if got := iterations(snap); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("earlier Trace() result changed by later spans: %v", got)
	}
}

// TestTraceRingAppendInPlace: appending to a full ring overwrites the
// oldest slot and touches nothing else; the backing array is neither
// reallocated nor shifted.
func TestTraceRingAppendInPlace(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(8)
	fill(r, 0, 11)
	tb := &r.trace
	base, capBefore, head := &tb.recs[0], cap(tb.recs), tb.head
	before := append([]SpanRecord(nil), tb.recs...)

	fill(r, 11, 12)

	if &tb.recs[0] != base || cap(tb.recs) != capBefore || len(tb.recs) != 8 {
		t.Fatal("appending to a full ring reallocated its backing array")
	}
	for i := range tb.recs {
		switch {
		case i == head:
			if tb.recs[i].Iteration != 11 {
				t.Fatalf("slot %d (oldest) = iteration %d, want the new record", i, tb.recs[i].Iteration)
			}
		case tb.recs[i] != before[i]:
			t.Fatalf("slot %d changed from %+v to %+v: records were shifted", i, before[i], tb.recs[i])
		}
	}
	if tb.head != (head+1)%8 {
		t.Fatalf("head = %d, want %d", tb.head, (head+1)%8)
	}
}

// TestTraceConcurrentEndTraceResize races span ends against trace reads
// and resizes (run under -race). Every span ended is either retained or
// counted as dropped, and each reader sees every writer's spans in the
// order that writer ended them.
func TestTraceConcurrentEndTraceResize(t *testing.T) {
	const writers, perWriter = 4, 2000
	r := NewRegistry()
	r.SetTraceCapacity(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.StartSpan("s", SpanKey{Iteration: uint64(i), Rank: w}).End(nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for round := 0; ; round++ {
		select {
		case <-done:
			total := int64(writers * perWriter)
			if got := int64(len(r.Trace())) + r.TraceDropped(); got != total {
				t.Fatalf("retained + dropped = %d, want %d spans ended", got, total)
			}
			return
		default:
		}
		r.SetTraceCapacity(16 + round%3*48)
		last := make(map[int]uint64)
		for _, rec := range r.Trace() {
			if prev, ok := last[rec.Rank]; ok && rec.Iteration <= prev {
				t.Fatalf("writer %d: iteration %d after %d", rec.Rank, rec.Iteration, prev)
			}
			last[rec.Rank] = rec.Iteration
		}
	}
}

// TestSpanAllocsFullRing holds a labelled StartSpan+End pair on a full
// ring to the Span itself: no key building, no label slice, no ring
// reallocation.
func TestSpanAllocsFullRing(t *testing.T) {
	r := NewRegistry()
	key := SpanKey{Pipeline: "viz", Iteration: 1, Rank: -1}
	for i := 0; i < defaultTraceCap+1; i++ {
		r.StartSpan("stage", key).End(nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.StartSpan("stage", key).End(nil)
	})
	if allocs > 1 {
		t.Fatalf("StartSpan+End = %.1f allocs, ceiling 1", allocs)
	}
}

func TestSpanErrorCounterFollowsFirstError(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("stage", SpanKey{Pipeline: "viz"}).End(nil)
	if _, ok := r.Snapshot().Counters["span.stage.errors{pipeline=viz}"]; ok {
		t.Fatal("error counter created before any span failed")
	}
	for i := 0; i < 3; i++ {
		r.StartSpan("stage", SpanKey{Pipeline: "viz"}).End(errors.New("x"))
	}
	if got := r.Snapshot().Counters["span.stage.errors{pipeline=viz}"]; got != 3 {
		t.Fatalf("span.stage.errors{pipeline=viz} = %d, want 3", got)
	}
}

// benchSpans times StartSpan+End pairs with a pipeline label. With
// refill, the registry is replaced whenever its ring fills, so every pair
// lands on a ring that has not wrapped.
func benchSpans(b *testing.B, r *Registry, refill bool) {
	key := SpanKey{Pipeline: "viz", Iteration: 1, Rank: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refill && i%defaultTraceCap == defaultTraceCap-1 {
			b.StopTimer()
			r = NewRegistry()
			b.StartTimer()
		}
		r.StartSpan("stage", key).End(nil)
	}
}

func BenchmarkSpanEndEmptyRing(b *testing.B) { benchSpans(b, NewRegistry(), true) }

func BenchmarkSpanEndFullRing(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < defaultTraceCap; i++ {
		r.StartSpan("fill", SpanKey{}).End(nil)
	}
	benchSpans(b, r, false)
}

// TestSetClockWhileSpansRun swaps clocks under open spans (run under
// -race): the swap is safe at any time and durations never go negative.
func TestSetClockWhileSpansRun(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := r.StartSpan("s", SpanKey{Pipeline: "p"}).End(nil); d < 0 {
					t.Errorf("negative span duration %v", d)
					return
				}
			}
		}()
	}
	ended := r.Histogram("span.s", "pipeline", "p")
	for i := 0; ended.Count() < 2000; i++ {
		fixed := time.Duration(i%3) * time.Second
		r.SetClock(func() time.Duration { return fixed })
		r.SetClock(WallClock())
	}
	close(stop)
	wg.Wait()
}
