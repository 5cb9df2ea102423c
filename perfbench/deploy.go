package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

// deployment is one staging area plus the single simulation-side client
// that drives it. Every endpoint is real: loopback TCP, or sm+tcp dual
// endpoints when the workload is colocated. The inproc fabric is never
// used, because it copies every frame and would overstate RPC cost.
type deployment struct {
	sm    bool
	smDir string

	pipeline string
	ptype    string
	pconfig  json.RawMessage

	servers []*core.Server
	cmi     *margo.Instance
	client  *core.Client
	admin   *core.AdminClient
	h       *core.DistributedPipelineHandle
	reg     *obs.Registry // the client's own registry
}

var ssgConfig = ssg.Config{GossipPeriod: 10 * time.Millisecond}

// listen opens one endpoint of the deployment's transport.
func (d *deployment) listen() (na.Endpoint, error) {
	if d.sm {
		return na.ListenDual("127.0.0.1:0", d.smDir, "")
	}
	return na.ListenTCP("127.0.0.1:0")
}

// startServer starts a staging server; bootstrap "" creates the group.
// MoNA always rides TCP, as in the paper's Margo/MoNA split.
func (d *deployment) startServer(bootstrap string) (*core.Server, error) {
	rpcEP, err := d.listen()
	if err != nil {
		return nil, err
	}
	monaEP, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		rpcEP.Close()
		return nil, err
	}
	return core.StartServer(rpcEP, monaEP, core.ServerConfig{SSG: ssgConfig, Bootstrap: bootstrap})
}

// deploy starts n servers, waits for the group to form, connects the
// client and creates the pipeline on every server.
func deploy(sm bool, smDir string, n int, pipeline, ptype string, pconfig json.RawMessage) (*deployment, error) {
	d := &deployment{sm: sm, smDir: smDir, pipeline: pipeline, ptype: ptype, pconfig: pconfig}
	for i := 0; i < n; i++ {
		boot := ""
		if i > 0 {
			boot = d.servers[0].Addr()
		}
		s, err := d.startServer(boot)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("start server %d: %w", i, err)
		}
		d.servers = append(d.servers, s)
	}
	if err := waitMembers(d.servers[0], n, 10*time.Second); err != nil {
		d.close()
		return nil, err
	}
	ep, err := d.listen()
	if err != nil {
		d.close()
		return nil, err
	}
	d.cmi = margo.NewInstance(ep)
	d.client = core.NewClient(d.cmi)
	d.reg = obs.NewRegistry()
	d.client.SetObserver(d.reg)
	d.admin = core.NewAdminClient(d.cmi)
	for _, s := range d.servers {
		if err := d.admin.CreatePipeline(s.Addr(), pipeline, ptype, pconfig); err != nil {
			d.close()
			return nil, fmt.Errorf("create pipeline: %w", err)
		}
	}
	d.h = d.client.Handle(pipeline, d.servers[0].Addr())
	d.h.SetTimeout(30 * time.Second)
	return d, nil
}

// waitMembers polls s's SSG view until it holds want members.
func waitMembers(s *core.Server, want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for len(s.Group.Members()) != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("group has %d members after %v, want %d", len(s.Group.Members()), limit, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// registries lists the client registry followed by every server's.
func (d *deployment) registries() []*obs.Registry {
	out := []*obs.Registry{d.reg}
	for _, s := range d.servers {
		out = append(out, s.Obs)
	}
	return out
}

// fillRing records filler spans until r's trace ring has wrapped, so every
// later span pays the steady-state cost of a full ring.
func fillRing(r *obs.Registry) {
	for r.TraceDropped() == 0 {
		r.StartSpan("perfbench.fill", obs.SpanKey{}).End(nil)
	}
}

func (d *deployment) close() {
	if d.h != nil {
		d.h.Close()
	}
	if d.cmi != nil {
		d.cmi.Finalize()
	}
	for _, s := range d.servers {
		s.Shutdown()
	}
}

// newSMDir makes a short, fresh directory for sm segments under out. The
// kernel caps unix socket paths near 100 bytes, so the name stays short.
func newSMDir(out string) (string, error) {
	dir := filepath.Join(out, fmt.Sprintf("sm%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return "", err
	}
	return dir, nil
}
