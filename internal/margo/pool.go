package margo

import (
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/mercury"
	"colza/internal/obs"
)

// This file implements execution streams: named bounded pools the analog of
// Margo binding Mercury handlers to Argobots pools. Each pool owns a fixed
// set of worker goroutines and a bounded queue; an RPC bound to a pool runs
// on one of its workers instead of a fresh goroutine. When the queue is
// full the request is shed at admission with mercury's retryable busy
// status — the server's resource envelope stays fixed no matter how many
// clients push, and producers are told to back off instead of being
// silently absorbed (the Catalyst/ISAAC flow-control argument).

// PoolConfig sizes one execution stream.
type PoolConfig struct {
	// Workers is the number of concurrently running handlers (default 4).
	Workers int
	// Queue is how many admitted requests may wait beyond the running ones
	// (default 2*Workers; negative means no waiting room at all).
	Queue int
	// BusyHint is the Retry-After backoff suggestion carried on shed
	// responses (default 2ms).
	BusyHint time.Duration
}

func (cfg PoolConfig) normalized() PoolConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	switch {
	case cfg.Queue < 0:
		cfg.Queue = 0
	case cfg.Queue == 0:
		cfg.Queue = 2 * cfg.Workers
	}
	if cfg.BusyHint <= 0 {
		cfg.BusyHint = 2 * time.Millisecond
	}
	return cfg
}

// Pool is one bounded execution stream of an Instance.
type Pool struct {
	name string
	m    *Instance
	cfg  PoolConfig

	tasks  chan poolTask
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// Per-task instruments, resolved once per observer registry. The shed
	// counter is resolved apart, on the first shed, so a pool that never
	// sheds shows no shed counter.
	instr obs.Handles[poolInstr]
	shed  obs.Handles[obs.Counter]
}

type poolInstr struct {
	depth, busy *obs.Gauge
	wait        *obs.Histogram
}

func (p *Pool) instruments(reg *obs.Registry) *poolInstr {
	return p.instr.For(reg, func(r *obs.Registry) *poolInstr {
		return &poolInstr{
			depth: r.Gauge("margo.pool.queue.depth", "pool", p.name),
			busy:  r.Gauge("margo.pool.busy", "pool", p.name),
			wait:  r.Histogram("margo.pool.wait", "pool", p.name),
		}
	})
}

func (p *Pool) shedCounter(reg *obs.Registry) *obs.Counter {
	return p.shed.For(reg, func(r *obs.Registry) *obs.Counter {
		return r.Counter("margo.pool.shed", "pool", p.name)
	})
}

type poolTask struct {
	run func()
	enq time.Duration // observer clock at admission, for queue-wait latency
}

// DefinePool creates (or returns, if the name is taken) a bounded pool and
// starts its workers. Defining any pool installs the instance's dispatcher
// on the Mercury class; RPCs are then routed to pools by BindRPCPool, and
// unbound RPCs keep the historic one-goroutine-per-request behavior.
func (m *Instance) DefinePool(name string, cfg PoolConfig) *Pool {
	cfg = cfg.normalized()
	m.pmu.Lock()
	if m.pools == nil {
		m.pools = make(map[string]*Pool)
		m.rpcPool = make(map[string]*Pool)
	}
	if p, ok := m.pools[name]; ok {
		m.pmu.Unlock()
		return p
	}
	p := &Pool{
		name:  name,
		m:     m,
		cfg:   cfg,
		tasks: make(chan poolTask, cfg.Queue),
		stop:  make(chan struct{}),
	}
	m.pools[name] = p
	first := len(m.pools) == 1
	m.pmu.Unlock()
	m.observer().Gauge("margo.pool.workers", "pool", name).Set(int64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	if first {
		m.class.SetDispatcher(m.dispatch)
	}
	return p
}

// Pool returns a pool by name, or nil.
func (m *Instance) Pool(name string) *Pool {
	m.pmu.RLock()
	defer m.pmu.RUnlock()
	return m.pools[name]
}

// BindRPCPool routes the fully qualified RPC name (see ProviderRPCName)
// onto p. A nil pool removes the binding.
func (m *Instance) BindRPCPool(rpcName string, p *Pool) {
	m.pmu.Lock()
	if m.rpcPool == nil {
		m.rpcPool = make(map[string]*Pool)
	}
	if p == nil {
		delete(m.rpcPool, rpcName)
	} else {
		m.rpcPool[rpcName] = p
	}
	m.pmu.Unlock()
}

// RegisterProviderRPCOnPool registers the handler and binds it to p in one
// step — per-RPC pool assignment at registration time.
func (m *Instance) RegisterProviderRPCOnPool(provider, rpc string, p *Pool, h mercury.Handler) {
	m.RegisterProviderRPC(provider, rpc, h)
	if p != nil {
		m.BindRPCPool(ProviderRPCName(provider, rpc), p)
	}
}

// dispatch is the mercury.Dispatcher: route bound RPCs to their pool,
// spawn everything else (responses never come here; internal RPCs like the
// bulk-pull service stay unbounded — their concurrency is already bounded
// by the pooled handlers that drive them).
func (m *Instance) dispatch(name string, run func()) error {
	m.pmu.RLock()
	p := m.rpcPool[name]
	m.pmu.RUnlock()
	if p == nil {
		go run()
		return nil
	}
	return p.trySubmit(run)
}

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// Config returns the normalized pool sizing.
func (p *Pool) Config() PoolConfig { return p.cfg }

// trySubmit admits run into the queue or sheds it with a retryable busy
// error. Never blocks: admission control happens here, on the progress
// loop, so a full pool costs the caller one round trip, not a goroutine.
func (p *Pool) trySubmit(run func()) error {
	reg := p.m.observer()
	if p.closed.Load() {
		p.shedCounter(reg).Inc()
		return &mercury.BusyError{RetryAfter: p.cfg.BusyHint}
	}
	select {
	case p.tasks <- poolTask{run: run, enq: reg.Now()}:
		p.instruments(reg).depth.Inc()
		return nil
	default:
		p.shedCounter(reg).Inc()
		return &mercury.BusyError{RetryAfter: p.cfg.BusyHint}
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			// Drain admitted work before exiting: a request that made it
			// into the queue was promised execution, never a silent drop.
			for {
				select {
				case t := <-p.tasks:
					p.runTask(t)
				default:
					return
				}
			}
		case t := <-p.tasks:
			p.runTask(t)
		}
	}
}

func (p *Pool) runTask(t poolTask) {
	reg := p.m.observer()
	in := p.instruments(reg)
	in.depth.Dec()
	in.wait.Observe(int64(reg.Now() - t.enq))
	in.busy.Inc()
	t.run()
	in.busy.Dec()
}

// close stops the workers after the current (and queued) tasks finish.
func (p *Pool) close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.wg.Wait()
}
