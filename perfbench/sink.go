package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"colza/internal/core"
)

// crcSinkType is the checksum sink the stage workloads stage into. It keeps
// no data: Stage folds each block's blockCRC into a running sum and Execute
// reports it, so the client can check every staged byte arrived intact.
const crcSinkType = "perfbench/crc"

func init() {
	core.RegisterPipelineType(crcSinkType, func(json.RawMessage) (core.Backend, error) {
		return &crcSink{}, nil
	})
}

type crcSink struct {
	mu     sync.Mutex
	it     uint64
	active bool
	crc    uint64
	blocks int
	bytes  int64
}

func (s *crcSink) Activate(ctx core.IterationContext) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.it, s.active, s.crc, s.blocks, s.bytes = ctx.Iteration, true, 0, 0, 0
	return nil
}

func (s *crcSink) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	c := blockCRC(meta.BlockID, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.active || it != s.it {
		return fmt.Errorf("crc sink: stage outside active iteration %d", it)
	}
	s.crc += uint64(c)
	s.blocks++
	s.bytes += int64(len(data))
	return nil
}

func (s *crcSink) Execute(it uint64) (core.ExecResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.active || it != s.it {
		return core.ExecResult{}, fmt.Errorf("crc sink: execute outside active iteration %d", it)
	}
	return core.ExecResult{Summary: map[string]float64{
		"crc_sum": float64(s.crc), "blocks": float64(s.blocks), "bytes": float64(s.bytes),
	}}, nil
}

func (s *crcSink) Deactivate(uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active = false
	return nil
}

func (s *crcSink) Destroy() error { return nil }
