package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// defaultTraceCap bounds the in-memory trace ring; older spans are dropped
// once it fills (the drop count is kept so consumers can tell).
const defaultTraceCap = 8192

// SpanKey identifies what a span measured: which pipeline, which
// iteration, on which rank. Rank -1 means "the client" (the simulation
// side has no staging rank).
type SpanKey struct {
	Pipeline  string
	Iteration uint64
	Rank      int
}

// SpanRecord is one completed span as stored in the trace and exported as
// a JSON line. Times are offsets from the registry clock's epoch, so
// DES-backed traces carry virtual time.
type SpanRecord struct {
	Name      string `json:"name"`
	Pipeline  string `json:"pipeline,omitempty"`
	Iteration uint64 `json:"iteration"`
	Rank      int    `json:"rank"`
	StartNS   int64  `json:"start_ns"`
	DurNS     int64  `json:"dur_ns"`
	Err       string `json:"err,omitempty"`
}

// Span is an in-progress measurement. End completes it: the duration goes
// into the histogram "span.<name>{pipeline=...}" and the record into the
// trace ring.
type Span struct {
	r     *Registry
	name  string
	key   SpanKey
	start time.Duration
}

// StartSpan begins a span on the registry clock.
func (r *Registry) StartSpan(name string, key SpanKey) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, key: key, start: r.Now()}
}

// End completes the span, recording err (nil for success), and returns
// the measured duration. It is safe on a nil span. End composes no metric
// key and allocates nothing beyond err's text: the span's instruments are
// resolved once per (name, pipeline) and the trace ring overwrites in
// place.
func (s *Span) End(err error) time.Duration {
	if s == nil || s.r == nil {
		return 0
	}
	dur := s.r.Now() - s.start
	if dur < 0 {
		dur = 0
	}
	in := s.r.spanInstruments(s.name, s.key.Pipeline)
	in.hist.Observe(int64(dur))
	rec := SpanRecord{
		Name:      s.name,
		Pipeline:  s.key.Pipeline,
		Iteration: s.key.Iteration,
		Rank:      s.key.Rank,
		StartNS:   int64(s.start),
		DurNS:     int64(dur),
	}
	if err != nil {
		rec.Err = err.Error()
		in.errorCounter(s.r, s.name, s.key.Pipeline).Inc()
	}
	s.r.trace.append(rec)
	return dur
}

// spanID keys the per-registry cache of span instruments.
type spanID struct{ name, pipeline string }

// spanInstr holds one (name, pipeline) span's pre-resolved instruments.
type spanInstr struct {
	hist *Histogram
	// errs is created on the span's first error, so a span that never
	// fails adds no error counter to snapshots.
	errs atomic.Pointer[Counter]
}

func spanLabels(pipeline string) []string {
	if pipeline == "" {
		return nil
	}
	return []string{"pipeline", pipeline}
}

func (in *spanInstr) errorCounter(r *Registry, name, pipeline string) *Counter {
	if c := in.errs.Load(); c != nil {
		return c
	}
	c := r.Counter("span."+name+".errors", spanLabels(pipeline)...)
	in.errs.Store(c)
	return c
}

// spanInstruments returns the cached instruments of (name, pipeline). The
// cache is a copy-on-write map behind an atomic pointer: every span after
// the first of its kind reads it without a lock or an allocation.
func (r *Registry) spanInstruments(name, pipeline string) *spanInstr {
	id := spanID{name, pipeline}
	if in, ok := (*r.spans.Load())[id]; ok {
		return in
	}
	h := r.Histogram("span."+name, spanLabels(pipeline)...)
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	old := *r.spans.Load()
	if in, ok := old[id]; ok {
		return in
	}
	m := make(map[spanID]*spanInstr, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	in := &spanInstr{hist: h}
	m[id] = in
	r.spans.Store(&m)
	return in
}

// traceBuf is a mutex-guarded ring of completed spans. recs grows by
// append until it holds cap records; from then on each append overwrites
// the oldest record, recs[head], and advances head, so appending costs the
// same on a full ring as on an empty one.
type traceBuf struct {
	mu      sync.Mutex
	cap     int
	recs    []SpanRecord
	head    int // index of the oldest record; nonzero only once len(recs) == cap
	dropped int64
}

func (t *traceBuf) append(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.recs) < t.cap {
		t.recs = append(t.recs, rec)
		return
	}
	t.recs[t.head] = rec
	t.head++
	if t.head == len(t.recs) {
		t.head = 0
	}
	t.dropped++
}

// ordered copies the retained records, oldest first, into a new slice
// (nil when the ring is empty). The caller holds t.mu.
func (t *traceBuf) ordered() []SpanRecord {
	if len(t.recs) == 0 {
		return nil
	}
	out := make([]SpanRecord, 0, len(t.recs))
	out = append(out, t.recs[t.head:]...)
	return append(out, t.recs[:t.head]...)
}

// SetTraceCapacity resizes the trace ring, keeping the newest records in
// completion order; the ones that no longer fit count as dropped.
// Capacity below 1 is treated as 1.
func (r *Registry) SetTraceCapacity(n int) {
	if n < 1 {
		n = 1
	}
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.ordered()
	if len(recs) > n {
		t.dropped += int64(len(recs) - n)
		recs = append([]SpanRecord(nil), recs[len(recs)-n:]...)
	}
	t.recs, t.head, t.cap = recs, 0, n
}

// Trace returns a copy of the retained spans in completion order.
func (r *Registry) Trace() []SpanRecord {
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ordered()
}

// TraceDropped reports how many spans the ring has evicted.
func (r *Registry) TraceDropped() int64 {
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteTraceJSON exports the trace as JSON lines (one SpanRecord per
// line), the structured format internal/bench and the e2e chaos suite
// consume to assert timing-shaped invariants.
func (r *Registry) WriteTraceJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Trace() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ParseTraceJSON reverses WriteTraceJSON.
func ParseTraceJSON(rd io.Reader) ([]SpanRecord, error) {
	dec := json.NewDecoder(rd)
	var out []SpanRecord
	for dec.More() {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
