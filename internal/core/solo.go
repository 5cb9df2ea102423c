package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"colza/internal/mercury"
)

// The paper's client API has two handle kinds: the distributed pipeline
// handle (DistributedPipelineHandle here) and "a pipeline handle, which
// references a specific pipeline in a specific server". This file is the
// latter: a non-collective handle for pipelines whose work does not span
// the staging area. It skips the 2PC — there is no member view to agree
// on — and gives the pipeline instance a one-member communicator.

// soloMsg drives the single-server activate.
type soloMsg struct {
	Pipeline  string `json:"p"`
	Iteration uint64 `json:"it"`
	Epoch     uint64 `json:"e"`
}

// handleActivateSolo activates a pipeline on this server only, with a
// communicator spanning just this server.
func (p *Provider) handleActivateSolo(req mercury.Request) ([]byte, error) {
	var msg soloMsg
	if err := json.Unmarshal(req.Payload, &msg); err != nil {
		return nil, err
	}
	slot, err := p.slot(msg.Pipeline)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.active != nil {
		return nil, fmt.Errorf("%w: %q", ErrBusy, msg.Pipeline)
	}
	view := MemberView{Epoch: msg.Epoch, Members: []ServerInfo{p.Info()}}
	memberKey := viewMemberKey(view)
	if slot.lastMembers != "" && slot.lastMembers != memberKey {
		p.deltas.InvalidatePipeline(slot.name)
	}
	slot.lastMembers = memberKey
	c, err := p.mn.CreateComm(CommID(msg.Pipeline, msg.Epoch), []string{p.mn.Addr()})
	if err != nil {
		return nil, fmt.Errorf("colza: creating solo communicator: %w", err)
	}
	ctx := IterationContext{
		Iteration: msg.Iteration,
		Epoch:     msg.Epoch,
		Rank:      0,
		Size:      1,
		Comm:      c,
		View:      view,
	}
	if err := slot.backend.Activate(ctx); err != nil {
		p.mn.DestroyComm(c)
		return nil, fmt.Errorf("colza: pipeline activate: %w", err)
	}
	slot.active = &activeState{epoch: msg.Epoch, iteration: msg.Iteration, comm: c, view: view}
	p.mu.Lock()
	p.activeIters++
	p.mu.Unlock()
	return []byte("ok"), nil
}

// PipelineHandle references one pipeline instance on one specific server.
// Unlike the distributed handle there is no view agreement: activate is a
// single RPC, and all staged blocks land on that server.
type PipelineHandle struct {
	c        *Client
	pipeline string
	server   string

	mu      sync.Mutex
	timeout time.Duration
	epoch   uint64

	codec stageCodecState

	// nbSem bounds in-flight NBStage calls (lazily created): acquire
	// before spawn, so the goroutine count is bounded too.
	nbOnce sync.Once
	nbSem  chan struct{}
}

// SoloHandle creates a handle on the pipeline instance at one server.
func (c *Client) SoloHandle(pipeline, serverRPC string) *PipelineHandle {
	return &PipelineHandle{c: c, pipeline: pipeline, server: serverRPC, timeout: 10 * time.Second}
}

// SetTimeout sets the per-RPC timeout.
func (h *PipelineHandle) SetTimeout(d time.Duration) {
	h.mu.Lock()
	h.timeout = d
	h.mu.Unlock()
}

// Server returns the target server's RPC address.
func (h *PipelineHandle) Server() string { return h.server }

// Activate starts an iteration on the single server.
func (h *PipelineHandle) Activate(it uint64) error {
	h.mu.Lock()
	h.epoch = (it+1)<<8 | 0xE0 // distinct epoch space from distributed handles
	payload, _ := json.Marshal(soloMsg{Pipeline: h.pipeline, Iteration: it, Epoch: h.epoch})
	timeout := h.timeout
	h.mu.Unlock()
	_, err := h.c.mi.CallProvider(h.server, ProviderID, "activate_solo", payload, timeout)
	return err
}

// SetCodec forces every staged block through the named codec; the default
// is raw (no compression, no copies).
func (h *PipelineHandle) SetCodec(name string) error { return h.codec.setCodec(name) }

// SetCodecAdaptive lets the adaptive controller pick the codec per block.
func (h *PipelineHandle) SetCodecAdaptive(on bool) { h.codec.setAdaptive(on) }

// Stage exposes data for the server to pull, as a batch of one in a
// single attempt; data must stay unchanged until Stage returns (RDMA
// semantics).
func (h *PipelineHandle) Stage(it uint64, meta BlockMeta, data []byte) error {
	h.mu.Lock()
	timeout := h.timeout
	h.mu.Unlock()
	return h.codec.stageOne(h.c.observer(), h.c.mi.Class(), h.pipeline, it, meta, data, false,
		func(frame []byte) ([]byte, error) {
			return h.c.mi.CallProvider(h.server, ProviderID, "stage", frame, timeout)
		})
}

// Execute runs the pipeline on the single server.
func (h *PipelineHandle) Execute(it uint64) (ExecResult, error) {
	h.mu.Lock()
	payload, _ := json.Marshal(epochMsg{Pipeline: h.pipeline, Iteration: it, Epoch: h.epoch})
	timeout := h.timeout
	h.mu.Unlock()
	raw, err := h.c.mi.CallProvider(h.server, ProviderID, "execute", payload, timeout)
	if err != nil {
		return ExecResult{}, err
	}
	var res ExecResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return ExecResult{}, err
	}
	return res, nil
}

// Deactivate completes the iteration.
func (h *PipelineHandle) Deactivate(it uint64) error {
	h.mu.Lock()
	payload, _ := json.Marshal(epochMsg{Pipeline: h.pipeline, Iteration: it, Epoch: h.epoch})
	timeout := h.timeout
	h.mu.Unlock()
	_, err := h.c.mi.CallProvider(h.server, ProviderID, "deactivate", payload, timeout)
	return err
}

// Non-blocking variants, mirroring the distributed handle.

// NBActivate is the non-blocking Activate.
func (h *PipelineHandle) NBActivate(it uint64) *Async {
	return asyncRun(func() asyncRes { return asyncRes{err: h.Activate(it)} })
}

// NBStage is the non-blocking Stage. A window semaphore acquired before
// the goroutine spawns bounds in-flight stages and live goroutines alike;
// the control-plane NB variants stay unbounded on purpose — they run once
// per iteration, not once per block.
func (h *PipelineHandle) NBStage(it uint64, meta BlockMeta, data []byte) *Async {
	h.nbOnce.Do(func() { h.nbSem = make(chan struct{}, nbStageWindow) })
	h.nbSem <- struct{}{}
	return asyncRun(func() asyncRes {
		defer func() { <-h.nbSem }()
		return asyncRes{err: h.Stage(it, meta, data)}
	})
}

// NBExecute is the non-blocking Execute.
func (h *PipelineHandle) NBExecute(it uint64) *Async {
	return asyncRun(func() asyncRes {
		r, err := h.Execute(it)
		return asyncRes{results: []ExecResult{r}, err: err}
	})
}

// NBDeactivate is the non-blocking Deactivate.
func (h *PipelineHandle) NBDeactivate(it uint64) *Async {
	return asyncRun(func() asyncRes { return asyncRes{err: h.Deactivate(it)} })
}
