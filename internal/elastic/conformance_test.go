package elastic

// The elasticity conformance suite: the controller state machine driven
// over the dessim virtual clock with scripted latency traces. Everything
// is synchronous and virtual — launches join instantly, backoffs and
// join timeouts advance simulated time only — so the verdict sequences
// are exact, byte-identical across runs and seeds, and the suite holds
// under -race with zero real-time sleeps.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"colza/internal/autoscale"
	"colza/internal/dessim"
	"colza/internal/obs"
)

// fakeCluster is a virtual membership the controller actuates against.
type fakeCluster struct {
	members []string
	next    int
}

func newFakeCluster(names ...string) *fakeCluster {
	fc := &fakeCluster{members: append([]string(nil), names...), next: len(names)}
	sort.Strings(fc.members)
	return fc
}

func (f *fakeCluster) list() []string { return append([]string(nil), f.members...) }

func (f *fakeCluster) add() string {
	f.next++
	name := fmt.Sprintf("m%02d", f.next)
	f.members = append(f.members, name)
	sort.Strings(f.members)
	return name
}

func (f *fakeCluster) remove(addr string) error {
	for i, m := range f.members {
		if m == addr {
			f.members = append(f.members[:i], f.members[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("no member %q", addr)
}

// confHarness binds a controller to a fake cluster on a dessim clock.
type confHarness struct {
	t    *testing.T
	sim  *dessim.Sim
	fc   *fakeCluster
	reg  *obs.Registry
	c    *Controller
	proc *dessim.Proc
}

func newConfHarness(t *testing.T, seed int64, cfg Config, self string, fc *fakeCluster, launch func() error) *confHarness {
	t.Helper()
	h := &confHarness{t: t, sim: dessim.New(seed), fc: fc, reg: obs.NewRegistry()}
	if launch == nil {
		launch = func() error { fc.add(); return nil }
	}
	cfg.Clock = h.sim.Now
	cfg.Sleep = func(d time.Duration) { h.proc.Sleep(d) }
	c, err := NewController(cfg, Deps{
		Self:     self,
		Members:  fc.list,
		Leave:    fc.remove,
		Launcher: LauncherFunc(launch),
		Registry: h.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	return h
}

// drive ticks the controller once per interval with the scripted execute
// times and returns one formatted line per verdict.
func (h *confHarness) drive(interval time.Duration, trace []time.Duration) []string {
	h.t.Helper()
	var lines []string
	h.sim.Spawn("driver", func(p *dessim.Proc) {
		h.proc = p
		for _, exec := range trace {
			p.Sleep(interval)
			v := h.c.Tick([]autoscale.Sample{{Exec: exec}})
			lines = append(lines, fmt.Sprintf("at=%04dms %s reason=%s servers=%d actuated=%v",
				v.AtMS, v.Action, v.Reason, v.Servers, v.Actuated))
		}
	})
	if err := h.sim.Run(); err != nil {
		h.t.Fatalf("sim: %v", err)
	}
	return lines
}

func (h *confHarness) counter(name string) int64 { return h.reg.Counter(name).Value() }

func assertLines(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("verdict sequence mismatch:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// A linear latency ramp must walk the group to the ceiling through the
// exact hold/scale-up cadence the cooldowns dictate.
func TestConformanceRampScalesToCeiling(t *testing.T) {
	ms := time.Millisecond
	var trace []time.Duration
	for i := 0; i < 12; i++ {
		trace = append(trace, time.Duration(20+15*i)*ms)
	}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3, Confirm: 1,
		CooldownObs: 2, Cooldown: 250 * ms, LaunchRetries: 1, JoinTimeout: time.Second,
	}, "m00", newFakeCluster("m00"), nil)
	got := h.drive(100*ms, trace)
	assertLines(t, got, []string{
		"at=0100ms hold reason=at-floor servers=1 actuated=false",
		"at=0200ms hold reason=at-floor servers=1 actuated=false",
		"at=0300ms hold reason=at-floor servers=1 actuated=false",
		"at=0400ms hold reason=at-floor servers=1 actuated=false",
		"at=0500ms hold reason=at-floor servers=1 actuated=false",
		"at=0600ms hold reason=at-floor servers=1 actuated=false",
		"at=0700ms scale-up reason=over-target servers=1 actuated=true",
		"at=0800ms hold reason=cooldown servers=2 actuated=false",
		"at=0900ms hold reason=cooldown-window servers=2 actuated=false",
		"at=1000ms scale-up reason=over-target servers=2 actuated=true",
		"at=1100ms hold reason=cooldown servers=3 actuated=false",
		"at=1200ms hold reason=cooldown-window servers=3 actuated=false",
	})
	if n := len(h.fc.list()); n != 3 {
		t.Fatalf("cluster ended at %d servers, want 3", n)
	}
	if up, att, errs := h.counter("elastic.scaleups"), h.counter("elastic.launch_attempts"), h.counter("elastic.launch_errors"); up != 2 || att != 2 || errs != 0 {
		t.Fatalf("counters: scaleups=%d attempts=%d errors=%d", up, att, errs)
	}
	if holds := h.counter("elastic.holds"); holds != 10 {
		t.Fatalf("holds=%d, want 10", holds)
	}
}

// A single latency spike must be absorbed by the confirm hysteresis:
// Confirm=2 means one outlier never resizes the group.
func TestConformanceSpikeHeldByConfirm(t *testing.T) {
	ms := time.Millisecond
	trace := []time.Duration{50 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms,
		500 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4, Confirm: 2, CooldownObs: 2, Cooldown: 250 * ms,
	}, "m00", newFakeCluster("m00", "m01"), nil)
	got := h.drive(100*ms, trace)
	want := []string{
		"at=0100ms hold reason=steady servers=2 actuated=false",
		"at=0200ms hold reason=steady servers=2 actuated=false",
		"at=0300ms hold reason=steady servers=2 actuated=false",
		"at=0400ms hold reason=steady servers=2 actuated=false",
		"at=0500ms hold reason=steady servers=2 actuated=false",
		"at=0600ms hold reason=confirming-up servers=2 actuated=false",
		"at=0700ms hold reason=steady servers=2 actuated=false",
		"at=0800ms hold reason=steady servers=2 actuated=false",
		"at=0900ms hold reason=steady servers=2 actuated=false",
		"at=1000ms hold reason=steady servers=2 actuated=false",
	}
	assertLines(t, got, want)
	if up, down := h.counter("elastic.scaleups"), h.counter("elastic.scaledowns"); up != 0 || down != 0 {
		t.Fatalf("spike resized the group: up=%d down=%d", up, down)
	}
}

// An oscillating load must not flap the group size: each over sample is
// cancelled before the confirm streak completes.
func TestConformanceOscillationNoFlapping(t *testing.T) {
	ms := time.Millisecond
	var trace []time.Duration
	for i := 0; i < 6; i++ {
		trace = append(trace, 120*ms, 40*ms)
	}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4, Confirm: 2, CooldownObs: 1, Cooldown: 50 * ms,
	}, "m00", newFakeCluster("m00", "m01"), nil)
	got := h.drive(100*ms, trace)
	var want []string
	for i := 0; i < 6; i++ {
		want = append(want,
			fmt.Sprintf("at=%04dms hold reason=confirming-up servers=2 actuated=false", 100+200*i),
			fmt.Sprintf("at=%04dms hold reason=steady servers=2 actuated=false", 200+200*i))
	}
	assertLines(t, got, want)
	if up, down := h.counter("elastic.scaleups"), h.counter("elastic.scaledowns"); up != 0 || down != 0 {
		t.Fatalf("oscillation flapped the group: up=%d down=%d", up, down)
	}
}

// The hard floor and ceiling clamp sustained pressure in both directions,
// and scale-down never victimizes the leader.
func TestConformanceFloorCeilingClamps(t *testing.T) {
	ms := time.Millisecond
	trace := []time.Duration{500 * ms, 500 * ms, 10 * ms, 10 * ms, 10 * ms, 10 * ms}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3, Confirm: 1, CooldownObs: 1, Cooldown: 50 * ms,
	}, "m00", newFakeCluster("m00", "m01", "m02"), nil)
	got := h.drive(100*ms, trace)
	assertLines(t, got, []string{
		"at=0100ms hold reason=at-ceiling servers=3 actuated=false",
		"at=0200ms hold reason=at-ceiling servers=3 actuated=false",
		"at=0300ms scale-down reason=under-low-water servers=3 actuated=true",
		"at=0400ms scale-down reason=under-low-water servers=2 actuated=true",
		"at=0500ms hold reason=at-floor servers=1 actuated=false",
		"at=0600ms hold reason=at-floor servers=1 actuated=false",
	})
	if members := h.fc.list(); len(members) != 1 || members[0] != "m00" {
		t.Fatalf("scale-down victimized the leader: %v", members)
	}
	if down := h.counter("elastic.scaledowns"); down != 2 {
		t.Fatalf("scaledowns=%d, want 2", down)
	}
}

// A noisy trace must be reproducible: the same seed yields byte-identical
// verdict logs, for several seeds.
func TestConformanceNoiseByteIdentical(t *testing.T) {
	ms := time.Millisecond
	run := func(seed int64) []string {
		fc := newFakeCluster("m00")
		h := newConfHarness(t, seed, Config{
			Target: 100 * ms, Floor: 1, Ceiling: 4, Confirm: 1, CooldownObs: 2, Cooldown: 250 * ms,
		}, "m00", fc, nil)
		rng := h.sim.Rand()
		var trace []time.Duration
		for i := 0; i < 20; i++ {
			trace = append(trace, time.Duration(30+rng.Intn(140))*ms)
		}
		return h.drive(100*ms, trace)
	}
	for _, seed := range []int64{1, 2, 3} {
		a, b := run(seed), run(seed)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("seed %d: two runs diverged:\n%s\n--- vs ---\n%s",
				seed, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
		if len(a) != 20 {
			t.Fatalf("seed %d: %d verdicts, want 20", seed, len(a))
		}
	}
}

// A launcher that always errors must burn exactly LaunchRetries attempts
// with exponential backoff on the virtual clock, and the conservation
// invariant launch_attempts == launch_errors + scaleups must hold.
func TestConformanceLaunchFailureRetries(t *testing.T) {
	ms := time.Millisecond
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3, Confirm: 1, CooldownObs: 2,
		Cooldown: 250 * ms, LaunchRetries: 3, LaunchBackoff: 50 * ms, JoinTimeout: time.Second,
	}, "m00", newFakeCluster("m00"),
		func() error { return errors.New("injected launch failure") })
	got := h.drive(100*ms, []time.Duration{500 * ms})
	assertLines(t, got, []string{
		"at=0100ms scale-up reason=over-target; launch-failed servers=1 actuated=false",
	})
	// Interval 100ms plus two backoffs (50ms, 100ms) — all virtual.
	if now := h.sim.Now(); now != 250*ms {
		t.Fatalf("virtual clock at %v, want 250ms", now)
	}
	att, errs, up := h.counter("elastic.launch_attempts"), h.counter("elastic.launch_errors"), h.counter("elastic.scaleups")
	if att != 3 || errs != 3 || up != 0 {
		t.Fatalf("attempts=%d errors=%d scaleups=%d", att, errs, up)
	}
	if att != errs+up {
		t.Fatalf("conservation violated: %d != %d + %d", att, errs, up)
	}
	// Retry accounting runs on the controller clock: both backoffs, virtual.
	if slept := h.reg.Counter("core.retry.slept_ns", "site", "launch").Value(); slept != int64(150*ms) {
		t.Fatalf("core.retry.slept_ns{site=launch} = %v, want 150ms", time.Duration(slept))
	}
	if n := h.reg.Counter("core.retry.giveups", "site", "launch").Value(); n != 1 {
		t.Fatalf("core.retry.giveups{site=launch} = %d, want 1", n)
	}
}

// A daemon that launches but crashes before joining must be detected by
// the join timeout — on the virtual clock — and counted as a launch
// error.
func TestConformanceCrashBeforeJoinTimesOut(t *testing.T) {
	ms := time.Millisecond
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3, Confirm: 1, CooldownObs: 2,
		Cooldown: 250 * ms, LaunchRetries: 2, LaunchBackoff: 50 * ms, JoinTimeout: 500 * ms,
	}, "m00", newFakeCluster("m00"),
		func() error { return nil }) // "launched", but never joins
	got := h.drive(100*ms, []time.Duration{500 * ms})
	assertLines(t, got, []string{
		"at=0100ms scale-up reason=over-target; launch-failed servers=1 actuated=false",
	})
	// Interval + two join timeouts + one backoff, all virtual.
	if now := h.sim.Now(); now != (100+500+50+500)*ms {
		t.Fatalf("virtual clock at %v, want 1150ms", now)
	}
	att, errs, up := h.counter("elastic.launch_attempts"), h.counter("elastic.launch_errors"), h.counter("elastic.scaleups")
	if att != 2 || errs != 2 || up != 0 || att != errs+up {
		t.Fatalf("attempts=%d errors=%d scaleups=%d", att, errs, up)
	}
}

// When the leader dies, the next member's controller must take over,
// open a takeover cooldown, and only then actuate on its own
// observations.
func TestConformanceLeaderHandoff(t *testing.T) {
	ms := time.Millisecond
	fc := newFakeCluster("m00", "m01")
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3, Confirm: 1, CooldownObs: 2, Cooldown: 200 * ms,
	}, "m01", fc, nil)
	var lines []string
	h.sim.Spawn("driver", func(p *dessim.Proc) {
		h.proc = p
		tick := func(exec time.Duration) {
			p.Sleep(100 * ms)
			v := h.c.Tick([]autoscale.Sample{{Exec: exec}})
			lines = append(lines, fmt.Sprintf("at=%04dms %s reason=%s servers=%d actuated=%v",
				v.AtMS, v.Action, v.Reason, v.Servers, v.Actuated))
		}
		tick(500 * ms)
		tick(500 * ms)
		if err := fc.remove("m00"); err != nil { // the leader crashes
			t.Error(err)
		}
		tick(500 * ms)
		tick(500 * ms)
		tick(500 * ms)
	})
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	assertLines(t, lines, []string{
		"at=0100ms hold reason=not-leader servers=2 actuated=false",
		"at=0200ms hold reason=not-leader servers=2 actuated=false",
		"at=0300ms hold reason=cooldown servers=1 actuated=false",
		"at=0400ms hold reason=cooldown-window servers=1 actuated=false",
		"at=0500ms scale-up reason=over-target servers=1 actuated=true",
	})
	if tk := h.counter("elastic.takeovers"); tk != 1 {
		t.Fatalf("takeovers=%d, want 1", tk)
	}
	if up := h.counter("elastic.scaleups"); up != 1 {
		t.Fatalf("scaleups=%d, want 1", up)
	}
	st := h.c.Status()
	if !st.Leader || st.Self != "m01" {
		t.Fatalf("status after takeover: %+v", st)
	}
	if st.Counters["elastic.takeovers"] != 1 {
		t.Fatalf("status counters: %v", st.Counters)
	}
	if len(st.Verdicts) != 5 {
		t.Fatalf("status verdicts: %d", len(st.Verdicts))
	}
}
