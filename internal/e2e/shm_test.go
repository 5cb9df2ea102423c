package e2e

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/sim"
	"colza/internal/ssg"
)

// smTestDir makes a short-pathed segment directory: unix socket paths are
// length-limited, and t.TempDir() under a long test name can exceed it.
func smTestDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "czsm-e2e-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// startSMServer launches one staging server whose RPC endpoint listens on
// shared memory and TCP simultaneously (the sm+tcp composite address ends
// up in the membership view, so peers and clients route per link). MoNA
// stays on TCP: collective traffic is server-to-server and exercises the
// plain transport alongside the sm one.
func startSMServer(t *testing.T, dir, bootstrap string) (*core.Server, *na.DualEndpoint) {
	t.Helper()
	rpcEP, err := na.ListenDual("127.0.0.1:0", dir, "")
	if err != nil {
		t.Fatal(err)
	}
	monaEP, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.StartServer(rpcEP, monaEP, core.ServerConfig{
		Bootstrap: bootstrap,
		// Generous failure-detector settings, as in startTCPServer: under
		// -race scheduling stalls must not read as member failures.
		SSG: ssg.Config{GossipPeriod: 10 * time.Millisecond, PingTimeout: 200 * time.Millisecond, SuspectPeriods: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, rpcEP
}

// TestColzaOverSM runs the whole stack — SSG membership, 2PC activation,
// staging, MoNA collectives, IceT compositing, growth and scale-down —
// with every server listening on sm+tcp. All ranks are colocated, so every
// RPC link must pin the shared-memory route and every staged block must be
// pulled zero-copy from the exposer's segment, and shutdown must leave no
// segment files behind.
func TestColzaOverSM(t *testing.T) {
	dir := smTestDir(t)

	// Runs after every shutdown below (LIFO): all sockets, rings, and
	// bulk arenas must be unlinked once the deployment is down.
	defer func() {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading segment dir: %v", err)
		}
		for _, e := range entries {
			t.Errorf("orphaned segment file after shutdown: %s", e.Name())
		}
	}()

	s0, _ := startSMServer(t, dir, "")
	defer s0.Shutdown()
	s1, _ := startSMServer(t, dir, s0.Addr())
	defer s1.Shutdown()
	waitMembers(t, []*core.Server{s0, s1}, 2)

	clientEP, err := na.ListenDual("127.0.0.1:0", dir, "")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(clientEP)
	defer mi.Finalize()
	client := core.NewClient(mi)
	reg := obs.NewRegistry()
	client.SetObserver(reg)
	admin := core.NewAdminClient(mi)

	pcfg, _ := json.Marshal(catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 64, Height: 64,
		ScalarRange: [2]float64{0, 32}, EmitImage: true,
	})
	for _, s := range []*core.Server{s0, s1} {
		if err := admin.CreatePipeline(s.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
			t.Fatal(err)
		}
	}

	h := client.Handle("viz", s0.Addr())
	h.SetTimeout(30 * time.Second)
	mb := sim.DefaultMandelbulb([3]int{16, 16, 8}, 4)

	runIteration(t, h, mb, 1, 2)

	// Grow to three servers, then iteration 2 uses all three.
	s2, _ := startSMServer(t, dir, s0.Addr())
	defer s2.Shutdown()
	waitMembers(t, []*core.Server{s0, s1, s2}, 3)
	if err := admin.CreatePipeline(s2.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
		t.Fatal(err)
	}
	runIteration(t, h, mb, 2, 3)

	// Scale down via the admin interface; iteration 3 runs on two again.
	if err := admin.RequestLeave(s2.Addr()); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, []*core.Server{s0, s1}, 2)
	runIteration(t, h, mb, 3, 2)

	// Everything is colocated, so the client must have pinned sm to every
	// server it talked to and never fallen back to TCP.
	snap := reg.Snapshot()
	if got := snap.Counters["na.route.sm_preferred"]; got < 2 {
		t.Errorf("na.route.sm_preferred = %d, want >= 2 (client links did not ride shared memory)", got)
	}
	if got := snap.Counters["na.route.tcp_fallback"]; got != 0 {
		t.Errorf("na.route.tcp_fallback = %d, want 0 (a colocated link fell back to TCP)", got)
	}
	if got := snap.Counters["na.shm.frames.tx"]; got == 0 {
		t.Error("na.shm.frames.tx = 0: no RPC frame crossed the shared-memory ring")
	}
	// Every staged block must have been pulled zero-copy out of the
	// client's bulk arena by some server — the chunked RPC path stays cold.
	var pulls int64
	for _, s := range []*core.Server{s0, s1, s2} {
		pulls += s.Obs.Counter("na.shm.pull.local").Value()
	}
	if want := int64(3 * mb.Blocks); pulls < want {
		t.Errorf("na.shm.pull.local total = %d, want >= %d (bulk pulls not zero-copy)", pulls, want)
	}
}
