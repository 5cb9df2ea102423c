package core

import (
	"strings"
	"sync"
	"time"

	"colza/internal/bufpool"
	"colza/internal/codec"
	"colza/internal/mercury"
	"colza/internal/obs"
)

// deltaMismatchText opens the per-block error the server reports when a
// delta-encoded record names a base iteration it no longer holds (evicted,
// invalidated, or already superseded by a duplicate of this very block).
// The client reacts to the error's kind (stageBatchErrDeltaMismatch); the
// text keeps the cause readable in logs.
const deltaMismatchText = "colza: stage delta base mismatch"

// codecUsed pairs the codec a block was encoded with and the CPU time the
// encode took, for feedback after the stage RPC completes.
type codecUsed struct {
	c     codec.Codec
	encNs int64
}

// stageCodecState is the client half of the stage compression path, shared
// by the distributed and solo pipeline handles. Compression is opt-in per
// handle (SetCodec / SetCodecAdaptive): with neither set every block takes
// the exact pre-codec raw path — no copy, no encode, no extra metrics — so
// the PR 3 alloc ceilings hold unchanged.
type stageCodecState struct {
	mu          sync.Mutex
	forced      codec.Codec // non-nil: always use this codec (negotiation permitting)
	adaptive    bool
	selector    *codec.Selector
	delta       *codec.DeltaState
	allowed     map[uint8]bool // per-link negotiated set; nil before negotiation
	lastMembers string         // member key of the last negotiated view
}

// enabled reports whether the codec machinery is engaged at all.
func (s *stageCodecState) enabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forced != nil || s.adaptive
}

func (s *stageCodecState) setCodec(name string) error {
	c, err := codec.Lookup(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.forced = c
	s.mu.Unlock()
	return nil
}

func (s *stageCodecState) setAdaptive(on bool) {
	s.mu.Lock()
	s.adaptive = on
	if on {
		s.forced = nil
		if s.selector == nil {
			s.selector = codec.NewSelector(codec.All())
		}
	}
	s.mu.Unlock()
}

func (s *stageCodecState) deltaState() *codec.DeltaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delta == nil {
		s.delta = codec.NewDeltaState(0)
	}
	return s.delta
}

// negotiate installs the per-link codec set for a freshly pinned view: the
// intersection of what every member advertises (a member advertising
// nothing is raw-only — raw is always mutual). A membership change also
// invalidates the pipeline's delta bases: placement re-routes blocks to
// servers that never saw their history, so every base this client
// remembers is suspect.
func (s *stageCodecState) negotiate(pipeline string, members []ServerInfo) {
	var key strings.Builder
	for _, m := range members {
		key.WriteString(m.RPC)
		key.WriteByte(',')
	}
	inter := map[uint8]bool{codec.RawID: true}
	for _, id := range codec.IDs() {
		inter[id] = true
	}
	for _, m := range members {
		mset := map[uint8]bool{codec.RawID: true}
		for _, id := range m.Codecs {
			mset[id] = true
		}
		for id := range inter {
			if !mset[id] {
				delete(inter, id)
			}
		}
	}
	s.mu.Lock()
	changed := s.lastMembers != "" && s.lastMembers != key.String()
	s.lastMembers = key.String()
	s.allowed = inter
	sel := s.selector
	delta := s.delta
	s.mu.Unlock()
	if sel != nil {
		var cands []codec.Codec
		for _, c := range codec.All() {
			if inter[c.ID()] {
				cands = append(cands, c)
			}
		}
		sel.SetCandidates(cands)
	}
	if changed && delta != nil {
		delta.InvalidatePipeline(pipeline)
	}
}

// pick chooses the codec for the next block, honoring the negotiated set.
func (s *stageCodecState) pick() codec.Codec {
	s.mu.Lock()
	forced, adaptive, sel, allowed := s.forced, s.adaptive, s.selector, s.allowed
	s.mu.Unlock()
	permit := func(c codec.Codec) bool {
		return c.ID() == codec.RawID || allowed == nil || allowed[c.ID()]
	}
	if forced != nil && permit(forced) {
		return forced
	}
	if forced == nil && adaptive && sel != nil {
		if c := sel.Pick(); permit(c) {
			return c
		}
	}
	return codec.Raw{}
}

// encodeStage prepares the wire payload for one block. With the codec
// machinery off, or when raw is picked, it returns data itself (pooled =
// false, nothing to recycle); any other codec returns a pooled buffer the
// caller must bufpool.Put after release. used.c is nil only with the
// machinery off, which keeps the raw default free of codec metrics.
// zeroBase forces a self-contained delta (the mismatch-fallback resend).
func (s *stageCodecState) encodeStage(pipeline string, it uint64, meta BlockMeta, data []byte, zeroBase bool) (wire []byte, pooled bool, ci stageCodecInfo, used codecUsed) {
	if !s.enabled() {
		return data, false, stageCodecInfo{Uncompressed: uint64(len(data))}, codecUsed{}
	}
	c := s.pick()
	ci = stageCodecInfo{CodecID: c.ID(), Uncompressed: uint64(len(data))}
	if c.ID() == codec.RawID {
		return data, false, ci, codecUsed{c: c}
	}
	start := time.Now()
	src := data
	var xbuf []byte
	if c.ID() == codec.DeltaID {
		ci.Remember = true
		key := codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}
		if !zeroBase && len(data) > 0 {
			if base, n, ok := s.deltaState().Latest(key); ok && n == len(data) && base < it {
				// XOR against the remembered base in a pooled copy (the
				// caller's buffer must stay untouched — RDMA semantics).
				xbuf = bufpool.Get(len(data))
				copy(xbuf, data)
				if s.deltaState().XORBase(key, base, xbuf) {
					ci.HasBase, ci.DeltaBase = true, base
					src = xbuf
				} else {
					bufpool.Put(xbuf)
					xbuf = nil
				}
			}
		}
	}
	buf := bufpool.Get(c.MaxEncodedSize(len(src)))
	enc, err := c.Encode(buf[:0], src)
	if xbuf != nil {
		bufpool.Put(xbuf)
	}
	if err != nil {
		// The built-in codecs cannot fail to encode, but a failing codec must
		// degrade to raw, never fail the stage.
		bufpool.Put(buf)
		ci = stageCodecInfo{CodecID: codec.RawID, Uncompressed: uint64(len(data))}
		return data, false, ci, codecUsed{codec.Raw{}, time.Since(start).Nanoseconds()}
	}
	return enc, true, ci, codecUsed{c, time.Since(start).Nanoseconds()}
}

// recordStaged feeds one successfully staged block back into metrics, the
// adaptive selector, and — for delta — the remembered base history.
// Client-side codec.bytes.in counts uncompressed bytes entering the codec,
// codec.bytes.out the wire bytes leaving; codec.ratio is permille
// (wire*1000/uncompressed). data holds the original block bytes whenever
// ci.Remember is set (the batcher keeps a pooled copy for exactly that);
// dataLen carries the uncompressed length for the metrics.
func (s *stageCodecState) recordStaged(reg *obs.Registry, pipeline string, it uint64, meta BlockMeta, data []byte, dataLen int, ci stageCodecInfo, used codecUsed, wireLen int, rpcNs int64) {
	if used.c == nil {
		return
	}
	name := used.c.Name()
	reg.Counter("codec.bytes.in", "codec", name).Add(int64(dataLen))
	reg.Counter("codec.bytes.out", "codec", name).Add(int64(wireLen))
	if dataLen > 0 {
		reg.Gauge("codec.ratio", "codec", name).Set(int64(wireLen) * 1000 / int64(dataLen))
		reg.Gauge("codec.encode_ns_per_mb", "codec", name).Set(used.encNs * (1 << 20) / int64(dataLen))
	}
	s.mu.Lock()
	sel := s.selector
	s.mu.Unlock()
	if sel != nil {
		sel.Record(used.c, dataLen, wireLen, used.encNs, rpcNs)
	}
	if ci.Remember && data != nil {
		s.deltaState().Remember(codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}, it, data)
	}
}

// exchangeStage is the one stage exchange every sender shares: it exposes
// payload (the records' encoded payloads, concatenated in record order),
// frames recs into a pooled buffer, carries the frame to the server with
// call, releases the frame and the bulk region, and decodes the per-block
// response. The region stays exposed across whatever retries call makes,
// so every resend pulls the same bytes. call is synchronous and the
// transport copies on send, so the frame is recycled as soon as call
// returns. rpcNs is the time spent in call.
func exchangeStage(cls *mercury.Class, pipeline string, it uint64, recs []stageBatchRec, payload []byte,
	call func(frame []byte) ([]byte, error)) (berrs []stageBatchBlockErr, rpcNs int64, err error) {
	bulk := cls.Expose(payload)
	frame := appendStageBatchMsg(bufpool.Get(stageBatchMsgSize(pipeline, recs, bulk))[:0], pipeline, it, recs, bulk)
	start := time.Now()
	resp, err := call(frame)
	rpcNs = time.Since(start).Nanoseconds()
	cls.Release(bulk)
	bufpool.Put(frame)
	if err != nil {
		return nil, rpcNs, err
	}
	berrs, err = decodeStageBatchResp(resp, len(recs))
	return berrs, rpcNs, err
}

// stageOne stages one block as a batch of one. The frame's bulk handle
// exposes the encoded block — data itself on the raw path, so nothing is
// copied and data must stay unchanged until stageOne returns (RDMA
// semantics). When the server no longer holds the delta base the block was
// encoded against (evicted, invalidated, or already advanced by a duplicate
// of this block), the block is re-encoded self-contained and resent:
// at-least-once staging may cost a fallback round trip but never decodes
// against wrong state. Any other block failure is the server's answer and
// returns as a remote error.
func (s *stageCodecState) stageOne(reg *obs.Registry, cls *mercury.Class, pipeline string, it uint64, meta BlockMeta, data []byte, zeroBase bool,
	call func(frame []byte) ([]byte, error)) error {
	for {
		wire, pooled, ci, used := s.encodeStage(pipeline, it, meta, data, zeroBase)
		recs := [1]stageBatchRec{{CI: ci, Meta: meta, PayloadLen: len(wire)}}
		berrs, rpcNs, err := exchangeStage(cls, pipeline, it, recs[:], wire, call)
		if pooled {
			bufpool.Put(wire)
		}
		if err == nil && len(berrs) > 0 {
			if berrs[0].Kind == stageBatchErrDeltaMismatch && ci.HasBase {
				reg.Counter("codec.delta.fallback", "pipeline", pipeline).Inc()
				zeroBase = true
				continue
			}
			err = berrs[0].remote()
		}
		if err == nil {
			s.recordStaged(reg, pipeline, it, meta, data, len(data), ci, used, recs[0].PayloadLen, rpcNs)
		}
		return err
	}
}
