package core

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/na"
)

// runAccIteration drives one full iteration on the "acc" stateful pipeline,
// staging one 100-byte block per block id in blocks.
func runAccIteration(t *testing.T, h *DistributedPipelineHandle, it uint64, blocks int) float64 {
	t.Helper()
	if _, err := h.Activate(it); err != nil {
		t.Fatalf("activate(%d): %v", it, err)
	}
	for b := 0; b < blocks; b++ {
		if err := h.Stage(it, BlockMeta{BlockID: b}, make([]byte, 100)); err != nil {
			t.Fatalf("stage(%d, %d): %v", it, b, err)
		}
	}
	res, err := h.Execute(it)
	if err != nil {
		t.Fatalf("execute(%d): %v", it, err)
	}
	if err := h.Deactivate(it); err != nil {
		t.Fatalf("deactivate(%d): %v", it, err)
	}
	return res[0].Summary["total"]
}

func createAccEverywhere(t *testing.T, d *deployment) {
	t.Helper()
	for _, s := range d.servers {
		if err := d.admin.CreatePipeline(s.Addr(), "acc", "stateful", nil); err != nil {
			t.Fatal(err)
		}
	}
}

// waitSoloView waits until the surviving server sees only itself.
func waitSoloView(t *testing.T, s *Server, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(s.Group.Members()) == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("survivor still sees %d members", len(s.Group.Members()))
}

// TestCheckpointRecoversCrashedServerState is the tentpole in miniature:
// with the default -state-replicas=1, a server crashing between deactivate
// and the next activate loses nothing — its last checkpoint is re-seeded
// into the surviving instance before the next iteration starts.
func TestCheckpointRecoversCrashedServerState(t *testing.T) {
	d := deploy(t, 2)
	createAccEverywhere(t, d)
	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	if total := runAccIteration(t, h, 1, 2); total != 100 {
		t.Fatalf("iteration 1 local total = %v, want 100", total)
	}
	// Each server replicated its state to its single ring successor — the
	// other server.
	for i, s := range d.servers {
		if held := s.Provider.HeldCheckpoints(); held != 1 {
			t.Fatalf("server %d holds %d checkpoints, want 1", i, held)
		}
	}

	// Crash (no leave announcement, no migration) between iterations.
	d.servers[1].Shutdown()
	waitSoloView(t, d.servers[0], 15*time.Second)

	if total := runAccIteration(t, h, 2, 2); total != 400 {
		// Survivor's own 200 (100 + this iteration's 200 staged bytes... see
		// below) — spelled out: iter-1 state 100 (own) + 100 (recovered) +
		// iter-2's 200 staged onto the solo survivor.
		t.Fatalf("post-crash total = %v, want 400 (crashed server's state lost?)", total)
	}
	reg := d.servers[0].Obs
	if n := reg.Counter("core.state.recover.count", "pipeline", "acc").Value(); n != 1 {
		t.Fatalf("recover.count = %d, want 1", n)
	}
	if n := reg.Counter("core.state.checkpoint.errors").Value(); n != 0 {
		t.Fatalf("checkpoint.errors = %d, want 0", n)
	}
	if n := reg.Counter("core.state.checkpoint.count", "pipeline", "acc").Value(); n == 0 {
		t.Fatal("checkpoint.count never incremented")
	}
	if held := d.servers[0].Provider.HeldCheckpoints(); held != 0 {
		t.Fatalf("survivor still holds %d checkpoints after recovery", held)
	}
}

// TestCheckpointDisabledLosesCrashedState documents the paper's baseline
// behavior when the durability layer is off: the crashed server's state is
// gone, and nothing is recovered.
func TestCheckpointDisabledLosesCrashedState(t *testing.T) {
	d := deployCfg(t, 2, func(i int, cfg *ServerConfig) { cfg.StateReplicas = -1 })
	createAccEverywhere(t, d)
	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	runAccIteration(t, h, 1, 2)
	for i, s := range d.servers {
		if held := s.Provider.HeldCheckpoints(); held != 0 {
			t.Fatalf("server %d holds %d checkpoints with replication disabled", i, held)
		}
	}
	d.servers[1].Shutdown()
	waitSoloView(t, d.servers[0], 15*time.Second)

	if total := runAccIteration(t, h, 2, 2); total != 300 {
		t.Fatalf("post-crash total = %v, want 300 (own 100 + iter-2's 200; crashed 100 lost)", total)
	}
	if n := d.servers[0].Obs.Counter("core.state.recover.count", "pipeline", "acc").Value(); n != 0 {
		t.Fatalf("recover.count = %d, want 0 with replication disabled", n)
	}
}

// TestFailedMigrationFallsBackToCheckpointRecovery: when every
// migrate_state transfer fails, the leave still completes, the failure is
// counted and reported via MigrationStatus — and the retained checkpoint
// replicas recover the state on the next activate. The durability layer is
// the backstop for exactly this case.
func TestFailedMigrationFallsBackToCheckpointRecovery(t *testing.T) {
	d := deploy(t, 2)
	createAccEverywhere(t, d)
	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	runAccIteration(t, h, 1, 2)

	// Every outgoing migrate_state from the leaver vanishes in the network.
	d.servers[1].MI.SetCallHook(func(to, name string) error {
		if name == margo.ProviderRPCName(ProviderID, "migrate_state") {
			return na.ErrNoRoute
		}
		return nil
	})
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitSoloView(t, d.servers[0], 15*time.Second)

	st, err := d.admin.MigrationStatus(d.servers[1].Addr())
	if err != nil {
		t.Fatalf("migration status: %v", err)
	}
	if !st.Partial() || st.Attempted != 1 || st.Migrated != 0 || len(st.Failed) != 1 || st.Failed[0] != "acc" {
		t.Fatalf("migration status = %+v, want partial with acc failed", st)
	}
	// Initial attempt + one backoff retry, both counted.
	if n := d.servers[1].Obs.Counter("core.migrate.errors").Value(); n != 2 {
		t.Fatalf("migrate.errors = %d, want 2", n)
	}

	// The failed migration left the checkpoint replicas in place; the next
	// activate recovers the leaver's 100 bytes from them.
	if total := runAccIteration(t, h, 2, 2); total != 400 {
		t.Fatalf("post-leave total = %v, want 400 (checkpoint backstop failed)", total)
	}
	if n := d.servers[0].Obs.Counter("core.state.recover.count", "pipeline", "acc").Value(); n != 1 {
		t.Fatalf("recover.count = %d, want 1", n)
	}
}

// TestMigrateRetriesAndCountsDrop: a single dropped migrate_state is
// retried with backoff and lands; the drop is still counted — the original
// bug discarded both the error and any trace of it.
func TestMigrateRetriesAndCountsDrop(t *testing.T) {
	d := deploy(t, 2)
	createAccEverywhere(t, d)
	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	runAccIteration(t, h, 1, 2)

	var calls int
	var mu sync.Mutex
	d.servers[1].MI.SetCallHook(func(to, name string) error {
		if name != margo.ProviderRPCName(ProviderID, "migrate_state") {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return na.ErrNoRoute
		}
		return nil
	})
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitSoloView(t, d.servers[0], 15*time.Second)

	st, err := d.admin.MigrationStatus(d.servers[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial() || st.Migrated != 1 {
		t.Fatalf("migration status = %+v, want clean single migration", st)
	}
	if n := d.servers[1].Obs.Counter("core.migrate.errors").Value(); n != 1 {
		t.Fatalf("migrate.errors = %d, want exactly the one dropped attempt", n)
	}
	if total := runAccIteration(t, h, 2, 2); total != 400 {
		t.Fatalf("post-leave total = %v, want 400", total)
	}
	// Migration succeeded, so recovery must NOT have also imported the
	// checkpoint replica (discard ran): exactly-once semantics.
	if n := d.servers[0].Obs.Counter("core.state.recover.count", "pipeline", "acc").Value(); n != 0 {
		t.Fatalf("recover.count = %d, want 0 after acknowledged migration", n)
	}
}

// TestMigrateStateRefusedWhileLeaving: a leaving server must not accept
// migrated state (it would strand it on departure).
func TestMigrateStateRefusedWhileLeaving(t *testing.T) {
	d := deploy(t, 2)
	createAccEverywhere(t, d)
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatal(err)
	}
	payload := mustMigratePayload(t, "acc", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	_, err := d.clientM.CallProvider(d.servers[1].Addr(), ProviderID, "migrate_state", payload, time.Second)
	if err == nil || !strings.Contains(err.Error(), "leaving") {
		t.Fatalf("migrate_state to leaving server = %v, want leaving refusal", err)
	}
}

func mustMigratePayload(t *testing.T, pipeline string, state []byte) []byte {
	t.Helper()
	payload, err := json.Marshal(migrateMsg{Pipeline: pipeline, State: state})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestTwoServersLeaveAtOnceConservesState: two simultaneous leaves must
// not pick each other as migration successors and strand both states —
// the live ring-successor walk skips leaving peers. Replication is
// disabled so the migration path alone carries the state.
func TestTwoServersLeaveAtOnceConservesState(t *testing.T) {
	d := deployCfg(t, 3, func(i int, cfg *ServerConfig) { cfg.StateReplicas = -1 })
	createAccEverywhere(t, d)
	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	// One 100-byte block per server (placement is BlockID mod members).
	runAccIteration(t, h, 1, 3)

	// servers[0] and servers[1] leave at once: under the old
	// first-member-not-self successor rule, srv0 would pick srv1 (itself
	// mid-leave) and the 2x100 bytes could strand on departed servers.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			if err := d.admin.RequestLeave(addr); err != nil {
				t.Errorf("leave %s: %v", addr, err)
			}
		}(d.servers[i].Addr())
	}
	wg.Wait()
	waitSoloView(t, d.servers[2], 15*time.Second)

	h2 := d.client.Handle("acc", d.servers[2].Addr())
	h2.SetTimeout(2 * time.Second)
	if _, err := h2.Activate(2); err != nil {
		t.Fatal(err)
	}
	res, err := h2.Execute(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Deactivate(2); err != nil {
		t.Fatal(err)
	}
	if got := res[0].Summary["total"]; got != 300 {
		t.Fatalf("survivor total = %v, want 300 (state stranded on a leaving peer)", got)
	}
}

// TestLeaveResponseFlushBeforeOnLeave: the OnLeave callback — which in the
// daemon tears the process down — must run only after the leave RPC's
// response has left the endpoint. The callback here crashes the server's
// endpoints outright (network-side close, synchronous); if the response
// were not flushed first, RequestLeave would time out. (The old code
// papered over this with a 200ms sleep; the response-flush handshake makes
// it deterministic.)
func TestLeaveResponseFlushBeforeOnLeave(t *testing.T) {
	d := deploy(t, 2)
	fired := make(chan struct{})
	d.servers[1].Provider.OnLeave(func() {
		_ = d.net.Crash("srv1")
		_ = d.net.Crash("srv1:mona")
		close(fired)
	})
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatalf("leave response lost behind OnLeave shutdown: %v", err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnLeave never fired")
	}
	waitSoloView(t, d.servers[0], 15*time.Second)
}

// TestRingSuccessors pins the placement rule checkpoints rely on.
func TestRingSuccessors(t *testing.T) {
	view := MemberView{Members: []ServerInfo{{RPC: "a"}, {RPC: "b"}, {RPC: "c"}}}
	cases := []struct {
		self string
		r    int
		want []string
	}{
		{"a", 1, []string{"b"}},
		{"b", 1, []string{"c"}},
		{"c", 1, []string{"a"}},
		{"a", 2, []string{"b", "c"}},
		{"a", 5, []string{"b", "c"}}, // clamped to n-1
		{"a", 0, nil},                // disabled
		{"x", 1, nil},                // not in view
	}
	for _, tc := range cases {
		got := ringSuccessors(view, tc.self, tc.r)
		if len(got) != len(tc.want) {
			t.Fatalf("ringSuccessors(%s, %d) = %v, want %v", tc.self, tc.r, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("ringSuccessors(%s, %d) = %v, want %v", tc.self, tc.r, got, tc.want)
			}
		}
	}
	solo := MemberView{Members: []ServerInfo{{RPC: "a"}}}
	if got := ringSuccessors(solo, "a", 3); got != nil {
		t.Fatalf("single-member view has successors: %v", got)
	}
}

// TestShutdownCutsCheckpointRetry: Server.Shutdown of an origin that is
// replicating to a successor which drops every checkpoint_state returns
// after at most the attempt in flight, not the whole three-attempt
// schedule, and the abandoned replica still counts as a checkpoint error.
func TestShutdownCutsCheckpointRetry(t *testing.T) {
	d := deploy(t, 2)
	createAccEverywhere(t, d)
	origin := d.servers[0]
	// A dropped request: the caller waits out its deadline, then fails
	// with a retryable error.
	const dropWait = 300 * time.Millisecond
	fired := make(chan struct{}, checkpointRetry.Max) // one slot per attempt
	origin.MI.SetCallHook(func(to, name string) error {
		if name != margo.ProviderRPCName(ProviderID, "checkpoint_state") {
			return nil
		}
		fired <- struct{}{}
		time.Sleep(dropWait)
		return na.ErrNoRoute
	})
	h := d.client.Handle("acc", origin.Addr())
	h.SetTimeout(time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		if err := h.Stage(1, BlockMeta{BlockID: b}, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	// The origin replicates inside its deactivate handler, so the client's
	// Deactivate only fails (origin gone) once the test is done with it.
	deactivated := make(chan struct{})
	go func() {
		defer close(deactivated)
		h.Deactivate(1)
	}()
	defer func() { <-deactivated }()
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("origin never attempted checkpoint_state")
	}

	start := time.Now()
	origin.Shutdown()
	d.servers = d.servers[1:] // already shut down
	if elapsed := time.Since(start); elapsed > dropWait+250*time.Millisecond {
		t.Fatalf("Shutdown took %v: it served out the checkpoint retries (one attempt is %v)", elapsed, dropWait)
	}
	if n := len(fired); n != 0 {
		t.Fatalf("%d more checkpoint attempts after Shutdown, want 0", n)
	}
	if n := origin.Obs.Counter("core.state.checkpoint.errors").Value(); n != 1 {
		t.Fatalf("core.state.checkpoint.errors = %d, want 1 (the abandoned replica)", n)
	}
	if n := origin.Obs.Counter("core.retry.giveups", "site", "checkpoint").Value(); n != 1 {
		t.Fatalf("core.retry.giveups{site=checkpoint} = %d, want 1", n)
	}
}
