package core

import (
	"encoding/binary"
	"errors"
)

// The stage RPC is the only control-plane call on the per-block hot path,
// so it gets a binary wire format; every other RPC stays JSON (cold and
// debuggable). This file holds the pieces every stage frame shares: the
// per-block codec envelope, the length-prefixed field helpers and the
// decode bounds. The frame itself (a record list over one bulk handle) is
// in stagebatch.go.

// stageFlagRemember asks the receiver to retain the decoded block as the
// delta base for the next iteration.
const stageFlagRemember = 1 << 0

// maxStageUncompressed bounds the uncompressed length a frame may claim, so
// a corrupt or hostile frame cannot make the server reserve unbounded
// memory. Matches the largest bufpool class (64 MiB).
const maxStageUncompressed = 64 << 20

// stageCodecInfo is the codec block of a stage frame: how the bulk payload
// was encoded and how to undo it.
type stageCodecInfo struct {
	CodecID      uint8
	Uncompressed uint64 // decoded payload length
	DeltaBase    uint64 // base iteration the payload was XORed against
	HasBase      bool   // false: no XOR base, payload is self-contained
	Remember     bool   // receiver should keep the block as next delta base
}

// ErrStageWire reports a malformed stage frame.
var ErrStageWire = errors.New("colza: malformed stage frame")

func appendU32(dst []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(dst, tmp[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

func appendLenString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readU32(p []byte) (uint32, []byte, error) {
	if len(p) < 4 {
		return 0, nil, ErrStageWire
	}
	return binary.LittleEndian.Uint32(p), p[4:], nil
}

func readU64(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, ErrStageWire
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

func readLenString(p []byte) (string, []byte, error) {
	n, p, err := readU32(p)
	if err != nil || int64(n) > int64(len(p)) {
		return "", nil, ErrStageWire
	}
	return string(p[:n]), p[n:], nil
}
