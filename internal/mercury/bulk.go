package mercury

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"colza/internal/na"
)

// Bulk is a handle to a registered memory region on some process. It is
// small and serializable: Colza's stage() RPC sends a Bulk instead of the
// data itself, and the staging server pulls the bytes with PullBulk —
// mirroring Mercury's RDMA semantics.
type Bulk struct {
	Addr string // owner's class address
	ID   uint64 // registration id at the owner
	Size int    // region length in bytes
}

// EncodedSize is the exact length of the handle's encoding.
func (b Bulk) EncodedSize() int { return 20 + len(b.Addr) }

// Encode serializes the handle.
func (b Bulk) Encode() []byte {
	return b.AppendEncode(make([]byte, 0, b.EncodedSize()))
}

// AppendEncode appends the serialized handle to dst; with EncodedSize of
// spare capacity it does not allocate.
func (b Bulk) AppendEncode(dst []byte) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], b.ID)
	dst = append(dst, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(b.Size))
	dst = append(dst, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(b.Addr)))
	dst = append(dst, tmp[:4]...)
	return append(dst, b.Addr...)
}

// DecodeBulk reverses Bulk.Encode, returning the remaining bytes. Malformed
// input (short frames, negative sizes, address lengths past the buffer)
// errors without allocating proportionally to the claimed lengths.
func DecodeBulk(data []byte) (Bulk, []byte, error) {
	if len(data) < 20 {
		return Bulk{}, nil, ErrBadBulk
	}
	var b Bulk
	b.ID = binary.LittleEndian.Uint64(data)
	b.Size = int(binary.LittleEndian.Uint64(data[8:]))
	if b.Size < 0 {
		return Bulk{}, nil, ErrBadBulk
	}
	al := int64(binary.LittleEndian.Uint32(data[16:]))
	if int64(len(data)) < 20+al {
		return Bulk{}, nil, ErrBadBulk
	}
	b.Addr = string(data[20 : 20+al])
	return b, data[20+al:], nil
}

// Expose registers buf as pull-able memory and returns its handle. The
// caller must keep buf alive and unchanged until Release; the region is
// referenced, not copied, as with pinned RDMA memory. In particular a
// pooled buffer must not be recycled (bufpool.Put) while exposed: a late
// puller would read recycled bytes. Release first, then recycle.
func (c *Class) Expose(buf []byte) Bulk {
	id := c.nextBk.Add(1)
	c.bmu.Lock()
	c.bulks[id] = buf
	c.bmu.Unlock()
	c.observer().Gauge("mercury.bulk.exposed.bytes").Add(int64(len(buf)))
	// On a shared-memory-capable transport, additionally publish the
	// region in the endpoint's shared segment so colocated pullers can
	// copy it straight out of mapped memory. Best-effort: on any failure
	// pulls simply use the RPC path against c.bulks. IDs are never reused
	// (nextBk only grows), so a stale publication can never alias a new
	// region.
	if lb, ok := c.ep.(na.LocalBulk); ok {
		lb.ExposeLocal(id, buf)
	}
	return Bulk{Addr: c.Addr(), ID: id, Size: len(buf)}
}

// Release deregisters a previously exposed region. After Release, pulls
// against the handle fail with ErrBadBulk (the use-after-release guard) and
// the caller may recycle or mutate the buffer.
func (c *Class) Release(b Bulk) {
	c.bmu.Lock()
	_, ok := c.bulks[b.ID]
	delete(c.bulks, b.ID)
	c.bmu.Unlock()
	if ok {
		c.observer().Gauge("mercury.bulk.exposed.bytes").Add(int64(-b.Size))
		if lb, lok := c.ep.(na.LocalBulk); lok {
			lb.ReleaseLocal(b.ID)
		}
	}
}

// ExposedBytes sums the sizes of all currently exposed regions. Leak-check
// helpers assert it returns to zero at shutdown: every Expose must have been
// matched by a Release.
func (c *Class) ExposedBytes() int64 {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	var total int64
	for _, buf := range c.bulks {
		total += int64(len(buf))
	}
	return total
}

// SetBulkChunk overrides the per-round-trip pull chunk size (0 restores the
// default). Benchmarks and tests shrink it to exercise the multi-chunk
// concurrent path on small regions.
func (c *Class) SetBulkChunk(n int) {
	if n < 0 {
		n = 0
	}
	c.chunk.Store(int64(n))
}

func (c *Class) bulkChunkSize() int {
	if n := c.chunk.Load(); n > 0 {
		return int(n)
	}
	return bulkChunk
}

// bulkPullConc bounds the goroutines pulling chunks of one region
// concurrently — the analog of the RDMA pipeline depth.
const bulkPullConc = 4

// PullBulk fetches the full region behind the handle into a fresh buffer.
// The buffer is newly allocated and owned by the caller; hot paths that
// recycle buffers should use PullBulkInto instead.
func (c *Class) PullBulk(b Bulk) ([]byte, error) {
	if b.Size < 0 {
		return nil, ErrBadBulk
	}
	out := make([]byte, b.Size)
	if err := c.pullRange(b, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PullBulkInto fetches the full region into dst, which must have length
// b.Size. Chunks land concurrently; the call does not return — even on
// error — until every in-flight chunk write to dst has finished, so the
// caller may recycle dst immediately afterwards.
func (c *Class) PullBulkInto(b Bulk, dst []byte) error {
	if b.Size < 0 || len(dst) != b.Size {
		return ErrBadBulk
	}
	return c.pullRange(b, 0, dst)
}

// PullBulkRange fetches n bytes starting at off into a fresh buffer,
// letting a puller fetch a sub-region (e.g. one block of a packed exposure)
// without moving the rest.
func (c *Class) PullBulkRange(b Bulk, off, n int) ([]byte, error) {
	if b.Size < 0 || off < 0 || n < 0 || off+n > b.Size {
		return nil, ErrBadBulk
	}
	out := make([]byte, n)
	if err := c.pullRange(b, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// pullRange moves len(dst) bytes of b starting at off into dst. It owns all
// writes to dst and joins every worker before returning. A local handle is
// served without touching the network, like intra-node RDMA through shared
// memory.
func (c *Class) pullRange(b Bulk, off int, dst []byte) error {
	n := len(dst)
	if off < 0 || n < 0 || off+n > b.Size {
		return ErrBadBulk
	}
	reg := c.observer()
	m := c.bulkM.For(reg, resolveBulkMetrics)
	start := reg.Now()
	defer func() {
		m.latency.Observe(int64(reg.Now() - start))
	}()
	m.count.Inc()
	m.bytes.Add(int64(n))
	if b.Addr == c.Addr() {
		m.local.Inc()
		c.bmu.Lock()
		src, ok := c.bulks[b.ID]
		if !ok || len(src) != b.Size {
			c.bmu.Unlock()
			return ErrBadBulk
		}
		copy(dst, src[off:off+n])
		c.bmu.Unlock()
		return nil
	}
	if n == 0 {
		return nil
	}
	// Cross-process zero-copy path: if the transport can map the
	// exposer's shared segment, copy the range straight out of it and
	// skip the chunked request/response protocol entirely. done=false
	// (region not published, peer not colocated, seqlock churn) falls
	// through to the RPC pulls, which remain authoritative — notably for
	// use-after-release, which must surface as ErrBadBulk.
	if lb, ok := c.ep.(na.LocalBulk); ok {
		if done, err := lb.PullLocal(b.Addr, b.ID, off, dst); done {
			return err
		}
	}
	chunk := c.bulkChunkSize()
	nchunks := (n + chunk - 1) / chunk
	if nchunks == 1 {
		return c.pullChunk(b, off, dst)
	}
	workers := bulkPullConc
	if workers > nchunks {
		workers = nchunks
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= nchunks {
					return
				}
				lo := i * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if err := c.pullChunk(b, off+lo, dst[lo:hi]); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	// Join every worker before returning: dst must never be written after
	// pullRange returns, or a recycled buffer could be scribbled on.
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// pullChunk performs one bulk-pull round trip for dst's worth of bytes at
// region offset off.
func (c *Class) pullChunk(b Bulk, off int, dst []byte) error {
	var req [24]byte
	binary.LittleEndian.PutUint64(req[:], b.ID)
	binary.LittleEndian.PutUint64(req[8:], uint64(off))
	binary.LittleEndian.PutUint64(req[16:], uint64(len(dst)))
	piece, err := c.Call(b.Addr, bulkPullRPC, req[:], 0)
	if err != nil {
		return fmt.Errorf("mercury: bulk pull from %s: %w", b.Addr, err)
	}
	if len(piece) != len(dst) {
		return fmt.Errorf("%w: short pull (%d of %d bytes)", ErrBadBulk, len(piece), len(dst))
	}
	copy(dst, piece)
	return nil
}

// handleBulkPull serves one chunk of an exposed region.
func (c *Class) handleBulkPull(req Request) ([]byte, error) {
	if len(req.Payload) != 24 {
		return nil, ErrBadBulk
	}
	id := binary.LittleEndian.Uint64(req.Payload)
	off := int(binary.LittleEndian.Uint64(req.Payload[8:]))
	n := int(binary.LittleEndian.Uint64(req.Payload[16:]))
	c.bmu.Lock()
	src, ok := c.bulks[id]
	c.bmu.Unlock()
	if !ok || off < 0 || n < 0 || off+n > len(src) {
		return nil, ErrBadBulk
	}
	return src[off : off+n], nil
}
