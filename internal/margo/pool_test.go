package margo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// TestPoolBoundsConcurrency: with W workers, at most W handlers run at
// once regardless of how many requests are admitted.
func TestPoolBoundsConcurrency(t *testing.T) {
	m1, m2 := twoInstances(t)
	reg := obs.NewRegistry()
	m2.SetObserver(reg)
	p := m2.DefinePool("data", PoolConfig{Workers: 2, Queue: 32})

	var inflight, peak atomic.Int64
	release := make(chan struct{})
	m2.RegisterProviderRPCOnPool("t", "work", p, func(req mercury.Request) ([]byte, error) {
		cur := inflight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-release
		inflight.Add(-1)
		return nil, nil
	})

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m1.CallProvider(m2.Addr(), "t", "work", nil, 5*time.Second)
		}(i)
	}
	// Wait until both workers are occupied, then let everything finish.
	deadline := time.Now().Add(2 * time.Second)
	for inflight.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d, want <= 2 workers", got)
	}
	if got := reg.Gauge("margo.pool.busy", "pool", "data").Max(); got > 2 {
		t.Fatalf("margo.pool.busy max = %d, want <= 2", got)
	}
}

// TestPoolShedsWhenFull: once workers and queue are saturated, further
// requests come back busy immediately (no blocking, no silent drop), and
// the shed counter records each one.
func TestPoolShedsWhenFull(t *testing.T) {
	m1, m2 := twoInstances(t)
	reg := obs.NewRegistry()
	m2.SetObserver(reg)
	p := m2.DefinePool("data", PoolConfig{Workers: 1, Queue: 1, BusyHint: 3 * time.Millisecond})

	started := make(chan struct{}, 16)
	release := make(chan struct{})
	m2.RegisterProviderRPCOnPool("t", "work", p, func(req mercury.Request) ([]byte, error) {
		started <- struct{}{}
		<-release
		return nil, nil
	})

	// Occupy the single worker...
	res := make(chan error, 2)
	go func() {
		_, err := m1.CallProvider(m2.Addr(), "t", "work", nil, 5*time.Second)
		res <- err
	}()
	<-started
	// ...and the single queue slot (poll: the admitted call's enqueue is
	// asynchronous from this goroutine's perspective).
	go func() {
		_, err := m1.CallProvider(m2.Addr(), "t", "work", nil, 5*time.Second)
		res <- err
	}()
	depth := reg.Gauge("margo.pool.queue.depth", "pool", "data")
	deadline := time.Now().Add(2 * time.Second)
	for depth.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if depth.Value() != 1 {
		t.Fatalf("queue depth = %d, want 1", depth.Value())
	}

	// The pool is now full: worker busy + queue occupied. This one sheds.
	_, err := m1.CallProvider(m2.Addr(), "t", "work", nil, 5*time.Second)
	if !errors.Is(err, mercury.ErrBusy) {
		t.Fatalf("saturated call: err = %v, want ErrBusy", err)
	}
	var be *mercury.BusyError
	if !errors.As(err, &be) || be.RetryAfter != 3*time.Millisecond {
		t.Fatalf("busy error = %#v, want RetryAfter 3ms", err)
	}
	if got := reg.Counter("margo.pool.shed", "pool", "data").Value(); got != 1 {
		t.Fatalf("margo.pool.shed = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-res; err != nil {
			t.Fatalf("admitted call failed: %v", err)
		}
	}
	if got := reg.Histogram("margo.pool.wait", "pool", "data").Count(); got < 2 {
		t.Fatalf("margo.pool.wait count = %d, want >= 2", got)
	}
}

// TestPoolUnboundRPCsUnaffected: an RPC not bound to any pool keeps the
// spawn-per-request path even when pools exist and are saturated.
func TestPoolUnboundRPCsUnaffected(t *testing.T) {
	m1, m2 := twoInstances(t)
	p := m2.DefinePool("data", PoolConfig{Workers: 1, Queue: 4})

	release := make(chan struct{})
	started := make(chan struct{})
	m2.RegisterProviderRPCOnPool("t", "slow", p, func(req mercury.Request) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})
	m2.RegisterProviderRPC("t", "fast", func(req mercury.Request) ([]byte, error) {
		return []byte("ok"), nil
	})
	defer close(release)

	go m1.CallProvider(m2.Addr(), "t", "slow", nil, 5*time.Second)
	<-started
	out, err := m1.CallProvider(m2.Addr(), "t", "fast", nil, 2*time.Second)
	if err != nil || string(out) != "ok" {
		t.Fatalf("unbound rpc while pool busy: out=%q err=%v", out, err)
	}
}

// TestPoolDrainOnFinalize: admitted tasks run to completion during
// Finalize — queue admission is a promise of execution.
func TestPoolDrainOnFinalize(t *testing.T) {
	net := na.NewInprocNetwork()
	e, err := net.Listen("drain")
	if err != nil {
		t.Fatal(err)
	}
	m := NewInstance(e)
	p := m.DefinePool("data", PoolConfig{Workers: 1, Queue: 4})
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		if err := p.trySubmit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	m.Finalize()
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d admitted tasks, want 3", got)
	}
	// After close, submissions shed instead of deadlocking.
	if err := p.trySubmit(func() {}); !errors.Is(err, mercury.ErrBusy) {
		t.Fatalf("post-close submit: err = %v, want ErrBusy", err)
	}
}

// TestDefinePoolIdempotent: same name returns the same pool.
func TestDefinePoolIdempotent(t *testing.T) {
	net := na.NewInprocNetwork()
	e, err := net.Listen("idem")
	if err != nil {
		t.Fatal(err)
	}
	m := NewInstance(e)
	defer m.Finalize()
	a := m.DefinePool("x", PoolConfig{Workers: 1})
	b := m.DefinePool("x", PoolConfig{Workers: 9})
	if a != b {
		t.Fatal("DefinePool with same name returned different pools")
	}
	if m.Pool("x") != a {
		t.Fatal("Pool lookup mismatch")
	}
	if m.Pool("missing") != nil {
		t.Fatal("unknown pool should be nil")
	}
	if got := a.Config().Workers; got != 1 {
		t.Fatalf("config workers = %d, want first definition's 1", got)
	}
}

// TestPoolMetricsFollowSetObserver: the pool and dispatch instruments are
// resolved once per registry, and a registry swapped in after traffic has
// flowed receives everything from then on.
func TestPoolMetricsFollowSetObserver(t *testing.T) {
	m1, m2 := twoInstances(t)
	first, second := obs.NewRegistry(), obs.NewRegistry()
	m2.SetObserver(first)
	p := m2.DefinePool("data", PoolConfig{Workers: 1})
	m2.RegisterProviderRPCOnPool("t", "work", p, func(req mercury.Request) ([]byte, error) {
		return nil, nil
	})
	call := func() {
		t.Helper()
		if _, err := m1.CallProvider(m2.Addr(), "t", "work", nil, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	call()
	call()
	m2.SetObserver(second)
	call()
	for _, c := range []struct {
		reg  *obs.Registry
		want int64
	}{{first, 2}, {second, 1}} {
		if got := c.reg.Histogram("margo.pool.wait", "pool", "data").Count(); got != c.want {
			t.Errorf("margo.pool.wait count = %d, want %d", got, c.want)
		}
		if got := c.reg.Histogram("margo.dispatch.latency", "rpc", "t::work").Count(); got != c.want {
			t.Errorf("margo.dispatch.latency count = %d, want %d", got, c.want)
		}
	}
}
