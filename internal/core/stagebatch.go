package core

import (
	"math"

	"colza/internal/mercury"
)

// Every staged block rides one frame format (DESIGN.md §7.3, §12): the
// stage RPC carries a v3 frame with a count-prefixed list of per-block
// records — codec envelope and block metadata — followed by ONE bulk handle
// over the concatenation of the encoded payloads. The server does a single
// pull and slices it by the records' payload lengths. A synchronous
// unbatched Stage is a batch of one whose bulk handle exposes the caller's
// own buffer; the batcher coalesces every block bound for the same server
// rank into one frame.
//
// Layout (little-endian):
//
//	u8  version (3)
//	u32 len(pipeline), pipeline
//	u64 iteration
//	u32 block count
//	count × record:
//	    u8  codec id
//	    u64 uncompressed payload length
//	    u64 delta base iteration + 1 (0 = no base)
//	    u8  flags (bit0: remember as next delta base)
//	    u32 len(field), field
//	    u32 block id (two's complement int32)
//	    u32 len(type), type
//	    3 × u32 dims (int32)
//	    3 × u64 origin  (float64 bits)
//	    3 × u64 spacing (float64 bits)
//	    u32 encoded payload length within the shared bulk region
//	u32 len(bulk), encoded mercury.Bulk handle
//
// Payload offsets are implicit: record i's payload starts where record
// i-1's ended, and the lengths must sum to exactly the bulk size. Every
// per-record bound holds per block (64 MiB uncompressed ceiling), however
// many records a frame carries. Versions 1 and 2 (one block per frame) are
// retired and fail to decode with ErrStageWire.
//
// Block failures are demultiplexed per index in the response so one bad
// block cannot fail its batch-mates (see appendStageBatchResp).

const stageBatchWireVersion = 3

// maxStageBatchBlocks bounds the block count a frame may claim; a batch
// this large would already have been flushed by any sane size trigger.
const maxStageBatchBlocks = 65536

// maxStageBatchPayload bounds one record's encoded payload length. Codecs
// may expand hostile input, but never past MaxEncodedSize, which stays
// within 2x the uncompressed ceiling for every registered codec.
const maxStageBatchPayload = 2 * maxStageUncompressed

// stageBatchRec is one block's record in a stage frame: the codec
// envelope and metadata plus where its payload ends in the shared bulk.
type stageBatchRec struct {
	CI         stageCodecInfo
	Meta       BlockMeta
	PayloadLen int
}

// stageBatchRecSize is the encoded size of one record.
func stageBatchRecSize(r stageBatchRec) int {
	return 1 + 8 + 8 + 1 + // codec id, uncompressed, delta base, flags
		4 + len(r.Meta.Field) +
		4 + // block id
		4 + len(r.Meta.Type) +
		12 + 24 + 24 + // dims, origin, spacing
		4 // payload length
}

// stageBatchMsgSize is the exact encoded size of a stage frame, so the
// frame buffer can be drawn right-sized from the pool.
func stageBatchMsgSize(pipeline string, recs []stageBatchRec, bulk mercury.Bulk) int {
	n := 1 + // version
		4 + len(pipeline) +
		8 + // iteration
		4 + // count
		4 + bulk.EncodedSize()
	for _, r := range recs {
		n += stageBatchRecSize(r)
	}
	return n
}

// appendStageBatchMsg encodes a stage frame; with
// stageBatchMsgSize of spare capacity in dst it does not allocate.
func appendStageBatchMsg(dst []byte, pipeline string, it uint64, recs []stageBatchRec, bulk mercury.Bulk) []byte {
	dst = append(dst, stageBatchWireVersion)
	dst = appendLenString(dst, pipeline)
	dst = appendU64(dst, it)
	dst = appendU32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = append(dst, r.CI.CodecID)
		dst = appendU64(dst, r.CI.Uncompressed)
		base := uint64(0)
		if r.CI.HasBase {
			base = r.CI.DeltaBase + 1
		}
		dst = appendU64(dst, base)
		var flags byte
		if r.CI.Remember {
			flags |= stageFlagRemember
		}
		dst = append(dst, flags)
		dst = appendLenString(dst, r.Meta.Field)
		dst = appendU32(dst, uint32(int32(r.Meta.BlockID)))
		dst = appendLenString(dst, r.Meta.Type)
		for _, d := range r.Meta.Dims {
			dst = appendU32(dst, uint32(int32(d)))
		}
		for _, o := range r.Meta.Origin {
			dst = appendU64(dst, math.Float64bits(o))
		}
		for _, s := range r.Meta.Spacing {
			dst = appendU64(dst, math.Float64bits(s))
		}
		dst = appendU32(dst, uint32(r.PayloadLen))
	}
	dst = appendU32(dst, uint32(bulk.EncodedSize()))
	return bulk.AppendEncode(dst)
}

// decodeStageBatchMsg parses a stage frame. Records materialize
// incrementally as parsing succeeds, so a hostile count cannot reserve
// memory beyond what the input actually carries; every per-record bound is
// enforced per record, and the payload lengths must sum to exactly the bulk
// size.
func decodeStageBatchMsg(p []byte) (pipeline string, it uint64, recs []stageBatchRec, bulk mercury.Bulk, err error) {
	fail := func() (string, uint64, []stageBatchRec, mercury.Bulk, error) {
		return "", 0, nil, mercury.Bulk{}, ErrStageWire
	}
	if len(p) < 1 || p[0] != stageBatchWireVersion {
		return fail()
	}
	p = p[1:]
	if pipeline, p, err = readLenString(p); err != nil {
		return fail()
	}
	if it, p, err = readU64(p); err != nil {
		return fail()
	}
	var count uint32
	if count, p, err = readU32(p); err != nil || count == 0 || count > maxStageBatchBlocks {
		return fail()
	}
	cap0 := int(count)
	if cap0 > 1024 {
		cap0 = 1024 // grow as records actually parse, not as the frame claims
	}
	recs = make([]stageBatchRec, 0, cap0)
	var totalPayload int64
	for i := uint32(0); i < count; i++ {
		var r stageBatchRec
		if len(p) < 1 {
			return fail()
		}
		r.CI.CodecID = p[0]
		p = p[1:]
		if r.CI.Uncompressed, p, err = readU64(p); err != nil || r.CI.Uncompressed > maxStageUncompressed {
			return fail()
		}
		var base uint64
		if base, p, err = readU64(p); err != nil {
			return fail()
		}
		if base > 0 {
			r.CI.HasBase = true
			r.CI.DeltaBase = base - 1
		}
		if len(p) < 1 || p[0]&^stageFlagRemember != 0 {
			return fail()
		}
		r.CI.Remember = p[0]&stageFlagRemember != 0
		p = p[1:]
		if r.Meta.Field, p, err = readLenString(p); err != nil {
			return fail()
		}
		var v32 uint32
		if v32, p, err = readU32(p); err != nil {
			return fail()
		}
		r.Meta.BlockID = int(int32(v32))
		if r.Meta.Type, p, err = readLenString(p); err != nil {
			return fail()
		}
		for d := range r.Meta.Dims {
			if v32, p, err = readU32(p); err != nil {
				return fail()
			}
			r.Meta.Dims[d] = int(int32(v32))
		}
		var v64 uint64
		for d := range r.Meta.Origin {
			if v64, p, err = readU64(p); err != nil {
				return fail()
			}
			r.Meta.Origin[d] = math.Float64frombits(v64)
		}
		for d := range r.Meta.Spacing {
			if v64, p, err = readU64(p); err != nil {
				return fail()
			}
			r.Meta.Spacing[d] = math.Float64frombits(v64)
		}
		if v32, p, err = readU32(p); err != nil || v32 > maxStageBatchPayload {
			return fail()
		}
		r.PayloadLen = int(v32)
		totalPayload += int64(r.PayloadLen)
		recs = append(recs, r)
	}
	var bn uint32
	if bn, p, err = readU32(p); err != nil || int64(bn) != int64(len(p)) {
		return fail()
	}
	bulk, rest, err := mercury.DecodeBulk(p)
	if err != nil || len(rest) != 0 {
		return fail()
	}
	if totalPayload != int64(bulk.Size) {
		return fail()
	}
	return pipeline, it, recs, bulk, nil
}

// --- per-block error demultiplexing response ------------------------------

// A stage RPC succeeds at the frame level whenever the frame decoded,
// the pipeline was active, and the bulk pull landed; what each block's
// decode + backend hand-off did is reported per index in the response. Only
// frame-level failures are RPC errors (and thus candidates for the client's
// whole-batch retry); per-block failures must not burn a retry for their
// batch-mates.

const stageBatchRespVersion = 1

// Per-block error kinds: how the client demultiplexes its reaction.
const (
	// stageBatchErrRemote: the block's decode or backend Stage failed; a
	// resend of the identical record would fail identically.
	stageBatchErrRemote = 1
	// stageBatchErrDeltaMismatch: the server no longer holds the delta base
	// the record named; the client re-stages that block self-contained.
	stageBatchErrDeltaMismatch = 2
)

// stageBatchBlockErr is one failed block in a batch response.
type stageBatchBlockErr struct {
	Index int
	Kind  uint8
	Msg   string
}

// remote is the error a block's sender sees for a demultiplexed failure:
// the server answered, so it classifies as ClassRemote and is not retried.
func (e stageBatchBlockErr) remote() error { return &mercury.RemoteError{Msg: e.Msg} }

// stageBatchRespSize is the exact encoded size of a batch response.
func stageBatchRespSize(errs []stageBatchBlockErr) int {
	n := 1 + 4
	for _, e := range errs {
		n += 4 + 1 + 4 + len(e.Msg)
	}
	return n
}

// appendStageBatchResp encodes the per-block error list (empty = every
// block landed).
func appendStageBatchResp(dst []byte, errs []stageBatchBlockErr) []byte {
	dst = append(dst, stageBatchRespVersion)
	dst = appendU32(dst, uint32(len(errs)))
	for _, e := range errs {
		dst = appendU32(dst, uint32(e.Index))
		dst = append(dst, e.Kind)
		dst = appendLenString(dst, e.Msg)
	}
	return dst
}

// decodeStageBatchResp parses a batch response; blocks bounds the indexes
// a well-formed response may name.
func decodeStageBatchResp(p []byte, blocks int) ([]stageBatchBlockErr, error) {
	if len(p) < 1 || p[0] != stageBatchRespVersion {
		return nil, ErrStageWire
	}
	p = p[1:]
	count, p, err := readU32(p)
	if err != nil || int(count) > blocks {
		return nil, ErrStageWire
	}
	var out []stageBatchBlockErr
	for i := uint32(0); i < count; i++ {
		var e stageBatchBlockErr
		var idx uint32
		if idx, p, err = readU32(p); err != nil || int(idx) >= blocks {
			return nil, ErrStageWire
		}
		e.Index = int(idx)
		if len(p) < 1 {
			return nil, ErrStageWire
		}
		switch p[0] {
		case stageBatchErrRemote, stageBatchErrDeltaMismatch:
			e.Kind = p[0]
		default:
			return nil, ErrStageWire
		}
		p = p[1:]
		if e.Msg, p, err = readLenString(p); err != nil {
			return nil, ErrStageWire
		}
		out = append(out, e)
	}
	if len(p) != 0 {
		return nil, ErrStageWire
	}
	return out, nil
}
