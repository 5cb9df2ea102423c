package e2e

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

// blockByte is the deterministic content pattern for a staged block:
// every byte is a function of (iteration, block id, offset), so a buffer
// that was recycled or scribbled between expose and pull decodes to the
// wrong pattern and is caught at the backend.
func blockByte(it uint64, block, i int) byte {
	return byte(uint64(i)*2654435761 + it*31 + uint64(block)*17)
}

// checksumPipeline verifies every staged payload against the pattern for
// its (iteration, block id). Duplicates from at-least-once retries are
// fine; corrupted content — the signature of a recycled pooled buffer
// observed by a late bulk pull — is not. It copies nothing: per the
// Backend contract it only reads data during the call.
type checksumPipeline struct {
	mu      sync.Mutex
	staged  int
	corrupt []string
}

func (c *checksumPipeline) Activate(ctx core.IterationContext) error { return nil }

func (c *checksumPipeline) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	bad := -1
	for i, b := range data {
		if b != blockByte(it, meta.BlockID, i) {
			bad = i
			break
		}
	}
	c.mu.Lock()
	c.staged++
	if bad >= 0 {
		c.corrupt = append(c.corrupt,
			fmt.Sprintf("iter %d block %d: byte %d/%d corrupted", it, meta.BlockID, bad, len(data)))
	}
	c.mu.Unlock()
	return nil
}

func (c *checksumPipeline) Execute(it uint64) (core.ExecResult, error) {
	return core.ExecResult{}, nil
}
func (c *checksumPipeline) Deactivate(it uint64) error { return nil }
func (c *checksumPipeline) Destroy() error             { return nil }

var (
	checksumMu    sync.Mutex
	checksumInsts []*checksumPipeline
)

func init() {
	core.RegisterPipelineType("checksum", func(cfg json.RawMessage) (core.Backend, error) {
		p := &checksumPipeline{}
		checksumMu.Lock()
		checksumInsts = append(checksumInsts, p)
		checksumMu.Unlock()
		return p, nil
	})
}

// TestChaosStageRetry is the buffer-ownership regression of the chaos
// suite: every arm stages pooled blocks that the caller recycles the moment
// Stage returns, while a mid-run fault plan drops one stage request and one
// stage response. Each retry must still pull the original bytes — never a
// recycled or already-reused buffer (per-byte checksums at the backend) —
// and every exposed bulk region must be released by shutdown, client and
// servers alike (the mercury.bulk.exposed.bytes balance check).
//
// The arms cover three transports (inproc; plain TCP sockets; and sm+tcp
// dual endpoints whose pulls are zero-copy out of the client's shared
// arena), both senders
// (per-block batch-of-one frames, whose bulk handle exposes the caller's own
// buffer; and the batcher, whose shared payload buffer is batch-owned), and
// the wire codec off, adaptive, or forced to delta. The compressed arms add
// a second pooled buffer and the delta base-mismatch fallback to the retry
// machinery, and none of it may change what the backend observes.
func TestChaosStageRetry(t *testing.T) {
	arms := []stageChaosArm{
		{transport: "inproc", codec: "raw"},
		{transport: "inproc", codec: "adaptive"},
		{transport: "inproc", codec: "delta"},
		{transport: "inproc", batched: true, codec: "raw"},
		{transport: "inproc", batched: true, codec: "delta"},
		{transport: "tcp", codec: "raw"},
		{transport: "sm", codec: "raw"},
		{transport: "sm", batched: true, codec: "raw"},
	}
	// Subtests nest transport / sender / codec, so one transport or one
	// sender can be selected on its own with -run.
	for _, transport := range []string{"inproc", "tcp", "sm"} {
		t.Run(transport, func(t *testing.T) {
			for _, batched := range []bool{false, true} {
				t.Run(stageChaosArm{batched: batched}.sender(), func(t *testing.T) {
					for _, arm := range arms {
						if arm.transport == transport && arm.batched == batched {
							t.Run(arm.codec, func(t *testing.T) { runStageChaosArm(t, arm) })
						}
					}
				})
			}
		})
	}
}

// stageChaosArm is one cell of the stage-retry chaos matrix.
type stageChaosArm struct {
	transport string // "inproc", "tcp" or "sm"
	batched   bool   // stage through the coalescing batcher
	codec     string // "raw" (codec off), "adaptive", or a forced codec name
}

func (a stageChaosArm) sender() string {
	if a.batched {
		return "batched"
	}
	return "per-block"
}

func (a stageChaosArm) name() string {
	return a.transport + "/" + a.sender() + "/" + a.codec
}

// stageChaosDeployment starts two staging servers and a client endpoint on
// the arm's transport; setPlan installs a fault plan on every endpoint a
// stage frame or its response can cross.
func stageChaosDeployment(t *testing.T, arm stageChaosArm) (servers []*core.Server, clientEP na.Endpoint, setPlan func(*na.FaultPlan)) {
	t.Helper()
	if arm.transport == "tcp" {
		var eps []*faultyEndpoint
		listen := func() *faultyEndpoint {
			ep, err := na.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fe := &faultyEndpoint{Endpoint: ep}
			eps = append(eps, fe)
			return fe
		}
		for i := 0; i < 2; i++ {
			boot := ""
			if i > 0 {
				boot = servers[0].Addr()
			}
			rpcEP := listen()
			monaEP, err := na.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.StartServer(rpcEP, monaEP, core.ServerConfig{
				Bootstrap: boot,
				// Generous failure-detector settings, as in startTCPServer.
				SSG: ssg.Config{GossipPeriod: 10 * time.Millisecond, PingTimeout: 200 * time.Millisecond, SuspectPeriods: 30},
			})
			if err != nil {
				t.Fatal(err)
			}
			servers = append(servers, s)
			t.Cleanup(s.Shutdown)
		}
		return servers, listen(), func(p *na.FaultPlan) {
			for _, ep := range eps {
				ep.plan.Store(p)
			}
		}
	}
	if arm.transport == "sm" {
		dir := smTestDir(t)
		var eps []*na.DualEndpoint
		for i := 0; i < 2; i++ {
			boot := ""
			if i > 0 {
				boot = servers[0].Addr()
			}
			s, ep := startSMServer(t, dir, boot)
			servers = append(servers, s)
			eps = append(eps, ep)
			t.Cleanup(s.Shutdown)
		}
		cep, err := na.ListenDual("127.0.0.1:0", dir, "")
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, cep)
		return servers, cep, func(p *na.FaultPlan) {
			for _, ep := range eps {
				ep.SetFaultPlan(p)
			}
		}
	}
	prefix := strings.NewReplacer("/", "-").Replace(arm.name())
	net := na.NewInprocNetwork()
	for i := 0; i < 2; i++ {
		boot := ""
		if i > 0 {
			boot = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("%s%d", prefix, i), core.ServerConfig{Bootstrap: boot, SSG: chaosSSG(int64(i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		t.Cleanup(s.Shutdown)
	}
	cep, err := net.Listen(prefix + "-client")
	if err != nil {
		t.Fatal(err)
	}
	return servers, cep, net.SetFaultPlan
}

// faultyEndpoint drops the outgoing frames a fault plan selects — the
// plain TCP endpoint has no plan hook of its own. Delay verdicts are not
// modelled; the chaos plans here only drop.
type faultyEndpoint struct {
	na.Endpoint
	plan atomic.Pointer[na.FaultPlan]
}

func (e *faultyEndpoint) Send(to string, data []byte) error {
	if p := e.plan.Load(); p != nil && p.Decide(e.Addr(), to, data).Drop {
		return nil
	}
	return e.Endpoint.Send(to, data)
}

func runStageChaosArm(t *testing.T, arm stageChaosArm) {
	servers, clientEP, setPlan := stageChaosDeployment(t, arm)
	waitMembers(t, servers, 2)

	checksumMu.Lock()
	instsBefore := len(checksumInsts)
	checksumMu.Unlock()

	mi := margo.NewInstance(clientEP)
	defer mi.Finalize()
	client := core.NewClient(mi)
	reg := obs.NewRegistry()
	client.SetObserver(reg)
	admin := core.NewAdminClient(mi)
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", "checksum", nil); err != nil {
			t.Fatal(err)
		}
	}

	// The leak check must hold whatever else the test concludes.
	defer func() {
		classes := []*mercury.Class{mi.Class()}
		for _, s := range servers {
			classes = append(classes, s.MI.Class())
		}
		mercury.VerifyNoExposedLeaks(t, classes...)
	}()

	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(250 * time.Millisecond)
	defer h.Close()
	if arm.batched {
		// Three blocks land on rank 0 per iteration, so MaxBlocks 2 gives
		// two frames to server 0 (a size-triggered one and a barrier-drained
		// one) — enough distinct responses that the Nth-2 response drop
		// below hits a stage reply, not the execute's. The age trigger is
		// off to keep frame boundaries deterministic.
		h.SetBatching(core.BatchConfig{MaxBlocks: 2, MaxAge: -1, Window: 2})
	}
	switch arm.codec {
	case "raw":
	case "adaptive":
		h.SetCodecAdaptive(true)
	default:
		if err := h.SetCodec(arm.codec); err != nil {
			t.Fatal(err)
		}
	}

	const iters, blocks = 3, 5
	const blockLen = 64 << 10
	for it := uint64(1); it <= iters; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatalf("iteration %d activate: %v", it, err)
		}
		if it == 2 {
			// Mid-run fault injection, so the rules below only ever see stage
			// traffic. Rule 0 drops a stage *request*: the client times out and
			// retries the whole frame while its bulk region stays exposed.
			// Rule 1 drops a stage *response* from server 0 to the client: the
			// server has already pulled the frame's blocks when the client
			// retries, so the retry's pull re-reads a region whose first pull
			// completed long ago — the classic at-least-once duplicate, which
			// must still carry the original bytes.
			plan := na.NewFaultPlan(7).SetClassifier(func(data []byte) string {
				if name, ok := mercury.RPCNameOf(data); ok {
					return name
				}
				return "response"
			})
			plan.Add(na.FaultRule{Label: "colza::stage", Nth: 1, Drop: true})
			plan.Add(na.FaultRule{Label: "response", From: servers[0].Addr(), To: mi.Addr(), Nth: 2, Drop: true})
			setPlan(plan)
			defer func() {
				for rule := 0; rule < 2; rule++ {
					if plan.Fired(rule) < 1 {
						t.Errorf("fault rule %d never fired (%s)", rule, plan)
					}
				}
			}()
		}
		for b := 0; b < blocks; b++ {
			// Pooling discipline under test: the block lives in a pooled
			// buffer that is recycled the moment Stage returns — legal
			// because a per-block Stage releases its bulk region before
			// returning, even on the retry paths the fault plan forces, and
			// a batched Stage copies the block into the batch.
			data := bufpool.Get(blockLen)
			for i := range data {
				data[i] = blockByte(it, b, i)
			}
			err := h.Stage(it, core.BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data)
			bufpool.Put(data)
			if err != nil {
				t.Fatalf("iteration %d stage %d: %v", it, b, err)
			}
		}
		if err := h.Flush(it); err != nil {
			t.Fatalf("iteration %d flush: %v", it, err)
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatalf("iteration %d execute: %v", it, err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatalf("iteration %d deactivate: %v", it, err)
		}
	}
	setPlan(nil)

	// The retry path must actually have run, or the test proves nothing.
	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.retries{pipeline=viz}"]; got < 1 {
		t.Errorf("fault plan produced %d stage retries, want >= 1", got)
	}
	if arm.batched {
		if got := snap.Counters["colza.stage.batch.blocks{pipeline=viz}"]; got != iters*blocks {
			t.Errorf("batch.blocks = %d, want %d", got, iters*blocks)
		}
	}
	// In the compressed arms the codec must actually have carried bytes,
	// and the forced-delta arm must have hit the base-mismatch fallback (the
	// dropped stage response leaves the server one iteration ahead, so the
	// retry's base is stale and the client must re-encode zero-base).
	if arm.codec != "raw" {
		var wire int64
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "codec.bytes.out{") {
				wire += v
			}
		}
		if wire == 0 {
			t.Error("codec enabled but codec.bytes.out counted no wire bytes")
		}
	}
	if arm.codec == "delta" {
		if got := snap.Counters["codec.bytes.out{codec=delta}"]; got < 1 {
			t.Errorf("codec.bytes.out{codec=delta} = %d, want > 0", got)
		}
		if got := snap.Counters["codec.delta.fallback{pipeline=viz}"]; got < 1 {
			t.Errorf("codec.delta.fallback{pipeline=viz} = %d, want >= 1", got)
		}
	}
	// The sm arms must have run over the shared-memory route with every
	// frame pulled zero-copy: one pull per block per-block, at least one
	// per dispatched batch when batched.
	if arm.transport == "sm" {
		if got := snap.Counters["na.route.sm_preferred"]; got < 1 {
			t.Errorf("na.route.sm_preferred = %d: chaos ran over TCP, not shared memory", got)
		}
		var pulls int64
		for _, s := range servers {
			pulls += s.Obs.Counter("na.shm.pull.local").Value()
		}
		want := int64(iters * blocks)
		if arm.batched {
			want = snap.Counters["colza.stage.batch.flushes{pipeline=viz}"]
		}
		if pulls < want {
			t.Errorf("na.shm.pull.local total = %d, want >= %d (stage pulls not zero-copy)", pulls, want)
		}
	}

	checksumMu.Lock()
	defer checksumMu.Unlock()
	var staged int
	for _, p := range checksumInsts[instsBefore:] {
		p.mu.Lock()
		staged += p.staged
		for _, c := range p.corrupt {
			t.Errorf("server observed recycled/corrupted stage buffer: %s", c)
		}
		p.mu.Unlock()
	}
	if want := iters * blocks; staged < want {
		t.Errorf("backends saw %d staged blocks, want >= %d", staged, want)
	}
}
