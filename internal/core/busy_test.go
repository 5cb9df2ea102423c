package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// busyPair builds a raw margo pair (no core server) so tests can script a
// "colza" provider handler that sheds on demand.
func busyPair(t *testing.T) (client *Client, server *margo.Instance, reg *obs.Registry) {
	t.Helper()
	net := na.NewInprocNetwork()
	se, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	ce, err := net.Listen("cli")
	if err != nil {
		t.Fatal(err)
	}
	sm, cm := margo.NewInstance(se), margo.NewInstance(ce)
	t.Cleanup(func() { cm.Finalize(); sm.Finalize() })
	client = NewClient(cm)
	reg = obs.NewRegistry()
	client.SetObserver(reg)
	return client, sm, reg
}

// TestClientBusyRetry: busy responses are retried in place — the caller of
// Client.call never sees a transient shed, the retry counter records every
// busy response (balanced against server-side sheds), and the info cache is
// left alone (a busy server is alive).
func TestClientBusyRetry(t *testing.T) {
	c, sm, reg := busyPair(t)
	var calls atomic.Int64
	sm.RegisterProviderRPC(ProviderID, "ping", func(req mercury.Request) ([]byte, error) {
		if calls.Add(1) <= 2 {
			return nil, &mercury.BusyError{RetryAfter: time.Millisecond}
		}
		return []byte("pong"), nil
	})
	c.mu.Lock()
	c.infoCache[sm.Addr()] = ServerInfo{RPC: sm.Addr()}
	c.mu.Unlock()

	out, err := c.call(sm.Addr(), "ping", nil, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong" {
		t.Fatalf("out = %q", out)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 busy + 1 ok)", got)
	}
	if got := reg.Counter("core.client.retries.busy", "rpc", "ping").Value(); got != 2 {
		t.Fatalf("core.client.retries.busy = %d, want 2", got)
	}
	if got := c.cachedInfoCount(); got != 1 {
		t.Fatalf("info cache size = %d, want 1 (busy must not evict)", got)
	}
}

// TestClientBusyExhaustion: a persistently loaded server eventually
// surfaces the busy error to the caller (Stage's outer retry policy takes
// over from there), after busyRetry.Max attempts.
func TestClientBusyExhaustion(t *testing.T) {
	c, sm, reg := busyPair(t)
	var calls atomic.Int64
	sm.RegisterProviderRPC(ProviderID, "ping", func(req mercury.Request) ([]byte, error) {
		calls.Add(1)
		return nil, &mercury.BusyError{RetryAfter: time.Microsecond}
	})
	_, err := c.call(sm.Addr(), "ping", nil, 5*time.Second, nil)
	if Classify(err) != ClassBusy {
		t.Fatalf("err = %v (class %v), want ClassBusy", err, Classify(err))
	}
	if got := calls.Load(); got != int64(busyRetry.Max) {
		t.Fatalf("server saw %d calls, want %d", got, busyRetry.Max)
	}
	if got := reg.Counter("core.client.retries.busy", "rpc", "ping").Value(); got != int64(busyRetry.Max) {
		t.Fatalf("core.client.retries.busy = %d, want %d (one per busy response)", got, busyRetry.Max)
	}
	if got := reg.Counter("core.retry.giveups", "site", "busy").Value(); got != 1 {
		t.Fatalf("core.retry.giveups{site=busy} = %d, want 1", got)
	}
	if got := reg.Counter("core.retry.slept_ns", "site", "busy").Value(); got < int64(busyRetry.Max-1)*int64(time.Millisecond) {
		t.Fatalf("core.retry.slept_ns{site=busy} = %d, want >= %d 1ms backoffs", got, busyRetry.Max-1)
	}
}

// TestClassifyBusy: the busy class is retryable, distinct from remote
// failures, and exposes the server's Retry-After hint.
func TestClassifyBusy(t *testing.T) {
	err := error(&mercury.BusyError{RetryAfter: 5 * time.Millisecond})
	if got := Classify(err); got != ClassBusy {
		t.Fatalf("Classify = %v, want ClassBusy", got)
	}
	if !Retryable(err) {
		t.Fatal("busy must be retryable")
	}
	if got := BusyRetryAfter(err); got != 5*time.Millisecond {
		t.Fatalf("BusyRetryAfter = %v, want 5ms", got)
	}
	if got := BusyRetryAfter(errors.New("other")); got != 0 {
		t.Fatalf("BusyRetryAfter(non-busy) = %v, want 0", got)
	}
	if ClassBusy.String() != "busy" {
		t.Fatalf("ClassBusy.String() = %q", ClassBusy.String())
	}
}

// TestBusyBackoffBounds drives busyRetry through the retry loop against a
// server that always sheds: the Retry-After hint raises the 1ms base, each
// sleep doubles the last up to the 100ms ceiling, and none exceeds 2x its
// step (full jitter) — so never below the hint, never above 200ms.
func TestBusyBackoffBounds(t *testing.T) {
	for _, tc := range []struct {
		hint, base time.Duration
	}{
		{4 * time.Millisecond, 4 * time.Millisecond},
		{0, time.Millisecond}, // no hint: busyRetry's own base
	} {
		var sleeps []time.Duration
		r := retrier{site: "busy", policy: busyRetry, retryable: isBusy,
			jitter: rand.New(rand.NewSource(3)).Float64, reg: obs.NewRegistry(),
			sleep: func(d time.Duration, _ <-chan struct{}) time.Duration {
				sleeps = append(sleeps, d)
				return d
			}}
		err := r.run(func(int) error { return &mercury.BusyError{RetryAfter: tc.hint} })
		if !isBusy(err) || len(sleeps) != busyRetry.Max-1 {
			t.Fatalf("hint %v: err %v after %d backoffs, want busy after %d", tc.hint, err, len(sleeps), busyRetry.Max-1)
		}
		for k, d := range sleeps {
			step := min(tc.base<<k, 100*time.Millisecond)
			if d < step || d >= 2*step {
				t.Fatalf("hint %v, attempt %d: backoff %v outside [%v, %v)", tc.hint, k, d, step, 2*step)
			}
		}
	}
}

// TestStageCloseDuringBusyStorm: a server that sheds every request with a
// 50ms hint keeps a Stage inside Client.call's busy backoffs; Close must
// cut the one in flight short, and Stage returns a wrapped ErrHandleClosed
// within 100ms instead of serving out the busy schedule.
func TestStageCloseDuringBusyStorm(t *testing.T) {
	c, sm, reg := busyPair(t)
	var calls atomic.Int64
	sm.RegisterProviderRPC(ProviderID, "stage", func(req mercury.Request) ([]byte, error) {
		calls.Add(1)
		return nil, &mercury.BusyError{RetryAfter: 50 * time.Millisecond}
	})
	h := c.Handle("viz", sm.Addr())
	h.SetView(MemberView{Epoch: 1, Members: []ServerInfo{{RPC: sm.Addr()}}})

	errCh := make(chan error, 1)
	go func() { errCh <- h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1}) }()
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // two sheds: the client is mid-backoff
	}
	start := time.Now()
	h.Close()
	select {
	case err := <-errCh:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("stage returned %v after close, want < 100ms", elapsed)
		}
		if !errors.Is(err, ErrHandleClosed) {
			t.Fatalf("stage after close = %v, want wrapped ErrHandleClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage still absorbing busy responses 5s after close")
	}
	if got := reg.Counter("core.retry.giveups", "site", "busy").Value(); got != 1 {
		t.Fatalf("core.retry.giveups{site=busy} = %d, want 1 (the canceled run)", got)
	}
	if got := reg.Counter("colza.stage.retries", "pipeline", "viz").Value(); got != 0 {
		t.Fatalf("colza.stage.retries = %d: a closed handle must not resend", got)
	}
}
