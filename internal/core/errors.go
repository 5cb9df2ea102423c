package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// ErrorClass partitions RPC failures by what the client may safely do next.
// The distinction that matters for retry logic: an Unreachable failure
// means the request never executed (safe to retry anywhere), a Timeout
// means it may or may not have executed (retry needs idempotence), and a
// Remote failure means the server is alive and answered — retrying the
// same request will fail the same way.
type ErrorClass int

const (
	// ClassOK: no error.
	ClassOK ErrorClass = iota
	// ClassTimeout: no response within the deadline; the request may have
	// executed. Retryable for idempotent operations; the peer's liveness is
	// unknown, so cached info about it should be discarded.
	ClassTimeout
	// ClassUnreachable: the request could not be delivered (no route,
	// endpoint closed). It definitely did not execute; always retryable,
	// and cached info about the peer is stale.
	ClassUnreachable
	// ClassRemote: the remote handler ran and returned an error. The server
	// is alive; retrying the identical request is pointless.
	ClassRemote
	// ClassLocal: a client-side failure (encoding, invalid argument).
	ClassLocal
	// ClassBusy: the server shed the request at admission (execution-stream
	// queue full). The request definitely did not execute — always safe to
	// retry, even for non-idempotent operations — and the server is alive,
	// so cached info about it stays valid. Busy errors carry a Retry-After
	// hint (BusyRetryAfter).
	ClassBusy
)

// String names the class for logs and metric labels ("timeout",
// "unreachable", ...), keeping the obs label vocabulary bounded.
func (c ErrorClass) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassTimeout:
		return "timeout"
	case ClassUnreachable:
		return "unreachable"
	case ClassRemote:
		return "remote"
	case ClassLocal:
		return "local"
	case ClassBusy:
		return "busy"
	default:
		return "unknown"
	}
}

// Classify maps an error from the RPC stack to its class.
func Classify(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, mercury.ErrTimeout):
		return ClassTimeout
	case errors.Is(err, mercury.ErrBusy):
		return ClassBusy
	case errors.Is(err, na.ErrNoRoute),
		errors.Is(err, na.ErrClosed),
		errors.Is(err, mercury.ErrClosed),
		errors.Is(err, mercury.ErrUnknownRPC):
		return ClassUnreachable
	default:
		var re *mercury.RemoteError
		if errors.As(err, &re) {
			return ClassRemote
		}
		return ClassLocal
	}
}

// Retryable reports whether the failure is transient: the operation may
// succeed if reissued (possibly against a refreshed view).
func Retryable(err error) bool {
	switch Classify(err) {
	case ClassTimeout, ClassUnreachable, ClassBusy:
		return true
	default:
		return false
	}
}

// BusyRetryAfter extracts the server's Retry-After hint from a busy error,
// or 0 when err is not busy or carries no hint.
func BusyRetryAfter(err error) time.Duration {
	var be *mercury.BusyError
	if errors.As(err, &be) {
		return be.RetryAfter
	}
	return 0
}

// RetryPolicy bounds a jittered exponential backoff: attempt k (0-based)
// sleeps Base<<k, capped at Cap, with a uniformly random fraction of up to
// Jitter of that value added — the standard defense against retry
// synchronization across many client ranks.
type RetryPolicy struct {
	Max    int           // attempts including the first; <=0 means 1
	Base   time.Duration // first backoff step
	Cap    time.Duration // backoff ceiling; <=0 means none
	Jitter float64       // extra random fraction in [0, Jitter)
}

// DefaultStageRetry is the handle's default policy for Stage RPCs.
var DefaultStageRetry = RetryPolicy{Max: 4, Base: 5 * time.Millisecond, Cap: 200 * time.Millisecond, Jitter: 0.5}

// DefaultViewRetry is the handle's default policy for view refresh and
// activate rounds.
var DefaultViewRetry = RetryPolicy{Max: 8, Base: 10 * time.Millisecond, Cap: time.Second, Jitter: 0.5}

// backoff returns the sleep before retry attempt k (0-based), drawing the
// jitter fraction from jitter (nil: none). The doubling saturates at the
// ceiling — math.MaxInt64 when Cap is unset — instead of overflowing.
func (rp RetryPolicy) backoff(k int, jitter func() float64) time.Duration {
	d, ceiling := rp.Base, rp.Cap
	if d <= 0 {
		d = time.Millisecond
	}
	if ceiling <= 0 {
		ceiling = math.MaxInt64
	}
	i := 0
	for ; i < k && d <= ceiling/2; i++ {
		d *= 2
	}
	if i < k || d > ceiling {
		d = ceiling
	}
	if rp.Jitter > 0 && jitter != nil {
		j := rp.Jitter * jitter() * float64(d)
		if j >= float64(math.MaxInt64-d) {
			return math.MaxInt64
		}
		d += time.Duration(j)
	}
	return d
}

// sleepFunc waits d unless cancel closes first, and returns how long it
// actually waited.
type sleepFunc func(d time.Duration, cancel <-chan struct{}) time.Duration

// wallSleep is the wall-clock sleepFunc.
func wallSleep(d time.Duration, cancel <-chan struct{}) time.Duration {
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-cancel:
	}
	return time.Since(start)
}

// retrier is the one backoff loop of core and elastic. Each retry site
// (busy, stage, activate, checkpoint, migrate, launch) fills one in; the
// loop accounts for it once, under the site label: core.retry.giveups
// counts runs that spent every attempt or were canceled, and
// core.retry.slept_ns the nanoseconds actually slept.
type retrier struct {
	site      string
	policy    RetryPolicy
	retryable func(error) bool
	jitter    func() float64  // uniform draws in [0, 1); nil: no jitter
	sleep     sleepFunc       // nil: wallSleep
	cancel    <-chan struct{} // closing it cuts a backoff short; nil never does
	canceled  error           // the cause a canceled run wraps
	reg       *obs.Registry
}

// run calls op(attempt) until it succeeds, fails with an error retryable
// rejects, or policy.Max attempts are spent, backing off between attempts.
// It returns op's last error, or, when cancel closes during a backoff,
// that error wrapped under the cancel cause.
func (r retrier) run(op func(attempt int) error) error {
	sleep := r.sleep
	if sleep == nil {
		sleep = wallSleep
	}
	for attempt := 0; ; attempt++ {
		err := op(attempt)
		if err == nil || !r.retryable(err) {
			return err
		}
		if attempt+1 < r.policy.Max {
			// A busy error's Retry-After hint raises the base, which then
			// doubles like any other.
			rp := r.policy
			rp.Base = max(rp.Base, BusyRetryAfter(err))
			slept := sleep(rp.backoff(attempt, r.jitter), r.cancel)
			r.reg.Counter("core.retry.slept_ns", "site", r.site).Add(int64(slept))
			select {
			case <-r.cancel:
				err = fmt.Errorf("colza: %s retry aborted (last error: %v): %w", r.site, err, r.canceled)
			default:
				continue
			}
		}
		r.reg.Counter("core.retry.giveups", "site", r.site).Inc()
		return err
	}
}

func retryAll(error) bool { return true }

// errRetryCanceled is what Run reports when cancel closes.
var errRetryCanceled = errors.New("colza: retry canceled")

// Run is the retry loop for callers outside this package (the elastic
// controller's launches): every error is retryable, backoffs draw no
// jitter, sleep (nil: the wall clock) waits them out, and closing cancel
// ends the run with errRetryCanceled. Accounting lands in reg under site.
func (rp RetryPolicy) Run(site string, reg *obs.Registry, sleep func(time.Duration, <-chan struct{}) time.Duration, cancel <-chan struct{}, op func(attempt int) error) error {
	return retrier{site: site, policy: rp, retryable: retryAll, sleep: sleep,
		cancel: cancel, canceled: errRetryCanceled, reg: reg}.run(op)
}
