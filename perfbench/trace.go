package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"colza/internal/obs"
)

// span is one harness span around a public Colza call. Spans of one
// iteration (or one resize cycle) share iter; parent indexes the tracer's
// span slice, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Iter   uint64 `json:"iter"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. When off, begin and end
// do nothing, so untraced iterations pay only a branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, iter uint64, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Iter: iter, Parent: parent, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// coverage returns, for each root span named root, the share of its
// duration covered by its direct children; one minus it is the root's
// self time share.
func (t *tracer) coverage(root string) []float64 {
	child := map[int32]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == root && s.End > s.Start {
			out = append(out, float64(child[int32(i)])/float64(s.End-s.Start))
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerDelta accumulates, over traced iterations, the change of every obs
// instrument of the client and the servers (summed across registries by
// metric name, labels dropped) and of the Go runtime's allocation and GC
// counters.
type layerDelta struct {
	iters    int
	counters map[string]int64
	client   map[string]int64 // counters of the client registry alone
	hists    map[string]obs.HistSnapshot
	dropped  int64

	allocBytes, allocs, gcPauseNS uint64
}

type snapshot struct {
	regs    []obs.Snapshot
	dropped int64
	mem     runtime.MemStats
}

func takeSnapshot(regs []*obs.Registry) *snapshot {
	s := &snapshot{}
	for _, r := range regs {
		s.regs = append(s.regs, r.Snapshot())
		s.dropped += r.TraceDropped()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// add folds the change from before to after into the accumulator. Both
// snapshots must cover the same registries in the same order.
func (l *layerDelta) add(before, after *snapshot) {
	if l.counters == nil {
		l.counters = map[string]int64{}
		l.client = map[string]int64{}
		l.hists = map[string]obs.HistSnapshot{}
	}
	l.iters++
	for i, a := range after.regs {
		b := before.regs[i]
		for k, v := range a.Counters {
			l.counters[baseName(k)] += v - b.Counters[k]
			if i == 0 {
				l.client[baseName(k)] += v - b.Counters[k]
			}
		}
		for k, h := range a.Histograms {
			bh := b.Histograms[k]
			d := obs.HistSnapshot{Count: h.Count - bh.Count, Sum: h.Sum - bh.Sum}
			for j := range h.Buckets {
				d.Buckets[j] = h.Buckets[j] - bh.Buckets[j]
			}
			n := baseName(k)
			l.hists[n] = l.hists[n].Merge(d)
		}
	}
	l.dropped += after.dropped - before.dropped
	l.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	l.allocs += after.mem.Mallocs - before.mem.Mallocs
	l.gcPauseNS += after.mem.PauseTotalNs - before.mem.PauseTotalNs
}

// perIter divides a total by the traced iteration count.
func (l *layerDelta) perIter(v float64) float64 {
	if l.iters == 0 {
		return 0
	}
	return v / float64(l.iters)
}

// counter sums the deltas of every counter named name.
func (l *layerDelta) counter(name string) float64 { return float64(l.counters[name]) }

// histSum is the summed observations, in seconds, of histograms recording
// nanoseconds.
func (l *layerDelta) histSum(names ...string) float64 {
	var s int64
	for _, n := range names {
		s += l.hists[n].Sum
	}
	return float64(s) / 1e9
}

// histP50 is the bucketed median, in seconds, of a nanosecond histogram.
func (l *layerDelta) histP50(name string) float64 { return l.hists[name].Quantile(0.5) / 1e9 }

// spans counts every span ended in the accumulated window.
func (l *layerDelta) spans() float64 {
	var n int64
	for k, h := range l.hists {
		if strings.HasPrefix(k, "span.") {
			n += h.Count
		}
	}
	return float64(n)
}

// gaugeMax is the highest high-water mark of any gauge named name across
// regs, over the registries' lifetime.
func gaugeMax(regs []*obs.Registry, name string) float64 {
	var m int64
	for _, r := range regs {
		for k, g := range r.Snapshot().Gauges {
			if baseName(k) == name && g.Max > m {
				m = g.Max
			}
		}
	}
	return float64(m)
}

// counterTotal sums every counter named name across regs.
func counterTotal(regs []*obs.Registry, name string) int64 {
	var n int64
	for _, r := range regs {
		for k, v := range r.Snapshot().Counters {
			if baseName(k) == name {
				n += v
			}
		}
	}
	return n
}

// quantile is the linearly interpolated q-quantile of xs (numpy's default
// method); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
