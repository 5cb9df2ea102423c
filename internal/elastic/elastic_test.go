package elastic

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/autoscale"
	"colza/internal/obs"
)

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(Config{Target: time.Second}, Deps{}); err == nil {
		t.Fatal("NewController accepted nil Members")
	}
	c, err := NewController(Config{Target: time.Second}, Deps{
		Members:  func() []string { return []string{"a"} },
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start accepted nil Snapshot")
	}
	// The default leave/launch actuators must error, not panic.
	if err := c.deps.Leave("a"); err == nil {
		t.Fatal("default Leave actuator did not error")
	}
	if err := c.deps.Launcher.Launch(); err == nil {
		t.Fatal("default Launcher did not error")
	}
}

func TestControllerDoubleStartAndStop(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewController(Config{Target: time.Second, Poll: time.Millisecond}, Deps{
		Members:  func() []string { return []string{"a"} },
		Snapshot: func(string) (obs.Snapshot, error) { return obs.Snapshot{}, nil },
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
	c.Stop()
	c.Stop() // idempotent
	if c.Status().Running {
		t.Fatal("status reports running after Stop")
	}
}

// The controller's sensing loop must leave no goroutine behind after
// Stop — the shutdown-leak gate ci.sh runs.
func TestControllerStopLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c, err := NewController(Config{Target: time.Second, Poll: time.Millisecond}, Deps{
			Members: func() []string { return []string{"a", "b"} },
			Snapshot: func(string) (obs.Snapshot, error) {
				return obs.Snapshot{}, errors.New("down")
			},
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		c.Stop()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after controller Stop", before, runtime.NumGoroutine())
}

// TestControllerStopDuringScaleUp: Stop must cut an in-flight scale-up
// short — the join wait and the launch backoff both end when the sensing
// loop stops — instead of blocking for every join timeout, and the launch
// conservation invariant still holds for the abandoned attempt.
func TestControllerStopDuringScaleUp(t *testing.T) {
	ms := int64(time.Millisecond)
	var mu sync.Mutex
	var total, count int64
	reg := obs.NewRegistry()
	c, err := NewController(Config{
		Target: 50 * time.Millisecond, Ceiling: 2, Confirm: 1,
		CooldownObs: 1, Cooldown: time.Millisecond, Poll: 2 * time.Millisecond,
		LaunchRetries: 3, LaunchBackoff: 100 * time.Millisecond, JoinTimeout: time.Second,
	}, Deps{
		Self:    "m00",
		Members: func() []string { return []string{"m00"} },
		Snapshot: func(string) (obs.Snapshot, error) {
			mu.Lock()
			defer mu.Unlock()
			total += 500 * ms // every poll: one 500ms iteration
			count++
			return execSnap(total, count), nil
		},
		// "Launched", but the daemon never joins.
		Launcher: LauncherFunc(func() error { return nil }),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("elastic.launch_attempts").Value() < 1 {
		if time.Now().After(deadline) {
			c.Stop()
			t.Fatalf("controller never launched; status: %+v", c.Status())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	c.Stop()
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("Stop took %v during a scale-up, want < 500ms", elapsed)
	}
	att, errs, up := reg.Counter("elastic.launch_attempts").Value(),
		reg.Counter("elastic.launch_errors").Value(), reg.Counter("elastic.scaleups").Value()
	if att < 1 || att != errs+up {
		t.Fatalf("attempts=%d errors=%d scaleups=%d: conservation violated", att, errs, up)
	}
	if n := reg.Counter("core.retry.giveups", "site", "launch").Value(); n != 1 {
		t.Fatalf("core.retry.giveups{site=launch} = %d, want 1 (the stopped scale-up)", n)
	}
}

func TestScaleDownVictim(t *testing.T) {
	cases := []struct {
		members []string
		self    string
		want    string
	}{
		{[]string{"a", "b", "c"}, "a", "c"},
		{[]string{"a", "b", "c"}, "c", "b"},
		{[]string{"a", "b"}, "b", ""}, // only the leader slot remains
		{[]string{"a"}, "a", ""},
		{nil, "a", ""},
		{[]string{"a", "b", "c"}, "", "c"},
	}
	for _, tc := range cases {
		if got := scaleDownVictim(tc.members, tc.self); got != tc.want {
			t.Errorf("scaleDownVictim(%v, %q) = %q, want %q", tc.members, tc.self, got, tc.want)
		}
	}
}

// execSnap builds a snapshot with one execute span histogram totalling
// the given cumulative sum/count.
func execSnap(sum, count int64) obs.Snapshot {
	return obs.Snapshot{Histograms: map[string]obs.HistSnapshot{
		"span.srv.execute{pipeline=viz}": {Sum: sum, Count: count},
	}}
}

func TestMetricsSourceDeltas(t *testing.T) {
	ms := int64(time.Millisecond)
	state := map[string]obs.Snapshot{
		"a": execSnap(100*ms, 1),
		"b": execSnap(400*ms, 1),
	}
	src := newMetricsSource(func(addr string) (obs.Snapshot, error) {
		snap, ok := state[addr]
		if !ok {
			return obs.Snapshot{}, errors.New("down")
		}
		return snap, nil
	})
	members := []string{"a", "b"}

	// First sight baselines both members: no samples, no errors.
	batch, errs := src.Poll(members)
	if batch != nil || errs != 0 {
		t.Fatalf("baseline poll: batch=%v errs=%d", batch, errs)
	}

	// a completes 2 iterations at 150ms mean, b completes 2 at 300ms
	// mean: the batch reports 2 iterations at the slowest member's mean.
	state["a"] = execSnap(400*ms, 3)
	state["b"] = execSnap(1000*ms, 3)
	batch, errs = src.Poll(members)
	if errs != 0 || len(batch) != 2 {
		t.Fatalf("delta poll: batch=%v errs=%d", batch, errs)
	}
	if batch[0].Exec != 300*time.Millisecond || batch[0].Servers != 2 {
		t.Fatalf("sample: %+v", batch[0])
	}

	// A member whose snapshot fails is skipped and counted.
	delete(state, "b")
	state["a"] = execSnap(500*ms, 4)
	batch, errs = src.Poll(members)
	if errs != 1 || len(batch) != 1 || batch[0].Exec != 100*time.Millisecond {
		t.Fatalf("degraded poll: batch=%v errs=%d", batch, errs)
	}

	// A member that left is pruned; re-joining re-baselines instead of
	// replaying its old totals.
	batch, _ = src.Poll([]string{"a"})
	if len(batch) != 0 {
		t.Fatalf("idle poll produced samples: %v", batch)
	}
	if _, ok := src.prev["b"]; ok {
		t.Fatal("dead member not pruned from source state")
	}
	state["b"] = execSnap(5000*ms, 9)
	batch, errs = src.Poll(members)
	if errs != 0 || len(batch) != 0 {
		t.Fatalf("re-baseline poll: batch=%v errs=%d", batch, errs)
	}
}

func TestProcessLauncherErrors(t *testing.T) {
	if err := (&ProcessLauncher{}).Launch(); err == nil {
		t.Fatal("empty binary accepted")
	}
	if err := (&ProcessLauncher{Binary: "/nonexistent/colza-server"}).Launch(); err == nil {
		t.Fatal("nonexistent binary accepted")
	}
	if err := (&ProcessLauncher{Binary: "/bin/true"}).Launch(); err != nil {
		t.Fatalf("launching /bin/true: %v", err)
	}
}

func TestWriteStatusFormat(t *testing.T) {
	st := Status{
		Self:       "tcp://a:1",
		Leader:     true,
		Running:    true,
		Members:    []string{"tcp://a:1", "tcp://b:2"},
		Floor:      1,
		Ceiling:    4,
		TargetMS:   100,
		CooldownMS: 1500,
		Counters:   map[string]int64{"elastic.scaleups": 2, "elastic.holds": 7},
		Gauges:     map[string]int64{"elastic.leader": 1},
		Verdicts: []Verdict{
			{Seq: 0, AtMS: 100, Action: "scale-up", Reason: "over-target", Servers: 1, ExecMS: 250, Actuated: true},
		},
	}
	var sb strings.Builder
	WriteStatus(&sb, st)
	out := sb.String()
	for _, want := range []string{
		"self    tcp://a:1",
		"leader  true  running true",
		"members 2  floor 1  ceiling 4  target 100.0ms  cooldown 1500ms",
		"counter elastic.holds 7",
		"counter elastic.scaleups 2",
		"gauge elastic.leader 1",
		"verdict   0 at=100ms scale-up (over-target) servers=1 exec=250.0ms actuated=true",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
	// Counters must be sorted for stable output.
	if strings.Index(out, "elastic.holds") > strings.Index(out, "elastic.scaleups") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

func TestStatusJSONRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewController(Config{Target: 100 * time.Millisecond}, Deps{
		Members:  func() []string { return []string{"m00"} },
		Self:     "m00",
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick([]autoscale.Sample{{Exec: 50 * time.Millisecond}})
	raw, err := c.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"self":"m00"`, `"leader":true`, `"elastic.holds"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("status JSON missing %s: %s", want, raw)
		}
	}
}

// The verdict ring must stay bounded at HistoryCap.
func TestVerdictHistoryBounded(t *testing.T) {
	c, err := NewController(Config{Target: time.Hour, HistoryCap: 4}, Deps{
		Members:  func() []string { return []string{"m00", "m01"} },
		Self:     "m00",
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Tick([]autoscale.Sample{{Exec: time.Millisecond}})
	}
	st := c.Status()
	if len(st.Verdicts) != 4 {
		t.Fatalf("history length %d, want 4", len(st.Verdicts))
	}
	if st.Verdicts[3].Seq != 9 {
		t.Fatalf("ring kept wrong tail: %+v", st.Verdicts)
	}
}

// The live sensing loop end to end against fake snapshots: members
// report growing execute totals, the loop senses the deltas and scales
// up through the launcher.
func TestSensingLoopScalesUp(t *testing.T) {
	ms := int64(time.Millisecond)
	var mu sync.Mutex
	members := []string{"m00"}
	totals := map[string]int64{"m00": 0}
	counts := map[string]int64{"m00": 0}
	reg := obs.NewRegistry()
	c, err := NewController(Config{
		Target: 50 * time.Millisecond, Ceiling: 2, Confirm: 1,
		CooldownObs: 1, Cooldown: time.Millisecond, Poll: 2 * time.Millisecond,
		LaunchRetries: 1, JoinTimeout: time.Second,
	}, Deps{
		Self: "m00",
		Members: func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), members...)
		},
		Snapshot: func(addr string) (obs.Snapshot, error) {
			mu.Lock()
			defer mu.Unlock()
			totals[addr] += 500 * ms // every poll: one 500ms iteration
			counts[addr]++
			return execSnap(totals[addr], counts[addr]), nil
		},
		Launcher: LauncherFunc(func() error {
			mu.Lock()
			defer mu.Unlock()
			name := fmt.Sprintf("m%02d", len(members))
			members = append(members, name)
			totals[name], counts[name] = 0, 0
			return nil
		}),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("elastic.scaleups").Value() >= 1 {
			mu.Lock()
			n := len(members)
			mu.Unlock()
			if n != 2 {
				t.Fatalf("scaleup counted but members=%d", n)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sensing loop never scaled up; status: %+v", c.Status())
}
