// Command perfbench is Colza's benchmark. It runs one named workload as a
// closed loop — one simulation-side client with one pipeline handle, each
// iteration starting after the previous one returned — against in-process
// staging servers on real loopback TCP or sm+tcp endpoints, checks every
// output against an oracle, and prints one JSON result as its last line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload stage-sm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with harness
// tracing off. With --trace 1 it alternates traced and untraced
// iterations and reports the per-layer metrics; the spans are written to
// <out>/trace-<workload>-<seed>.jsonl when the run ends. README.md lists
// every metric and the end-to-end metric each layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"colza/internal/core"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "length of the measured loop")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for sm segments and trace files")
	)
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Run shape. Each run sets the deployment up minSetups times, and more
// while setupTime has not passed (at most maxSetups), and reports the
// median as setup_s. warmupIters iterations run before the trace rings are
// filled. probeCycles join/leave cycles measure join_s and leave_s on the
// workloads whose loop does not resize.
const (
	minSetups   = 5
	maxSetups   = 100
	setupTime   = 2 * time.Second
	warmupIters = 3
	probeCycles = 110
)

// env records what a result depends on besides the code: it is printed on
// its own line before the result.
func env(name string, seed int64) map[string]any {
	return map[string]any{
		"workload": name, "seed": seed, "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssPeakMB reads the process's peak resident set size.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// setup deploys the workload's staging area and client, and runs the
// first iteration: server start to first Execute result.
func (r *runner) setup(smDir string) (*deployment, error) {
	w := r.w
	d, err := deploy(w.sm, smDir, w.servers, "perfbench", w.ptype, w.pconfig)
	if err != nil {
		return nil, err
	}
	r.d, r.runStats = d, nil
	if w.codec != "" {
		if err := d.h.SetCodec(w.codec); err != nil {
			d.close()
			return nil, err
		}
	}
	if w.batch {
		d.h.SetBatching(core.BatchConfig{})
	}
	if err := r.step(false); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func run(name string, seed int64, length time.Duration, traced bool, out string) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	smDir := ""
	if w.sm {
		if smDir, err = newSMDir(out); err != nil {
			return nil, err
		}
		defer os.RemoveAll(smDir)
	}
	e, err := json.Marshal(env(name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Println(string(e))

	r := &runner{w: w, tr: &tracer{t0: time.Now()}}
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupTime); i++ {
		t0 := time.Now()
		d, err := r.setup(smDir)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d.close()
	}

	// The deployment the measured loop runs on. Its first iteration counts
	// as a warmup iteration.
	d, err := r.setup(smDir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()

	for i := 0; i < warmupIters; i++ {
		if err := r.step(false); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	r.fillRings()

	// The measured loop. A traced run alternates traced and untraced
	// iterations (cycles, for resize), so bench.trace_overhead compares the
	// two under the same conditions.
	smBefore := r.smCounters()
	deadline := time.Now().Add(length)
	for k := 0; time.Now().Before(deadline); k++ {
		r.tr.on = traced && k%2 == 1
		if w.resize {
			r.attempted++
			c, err := r.cycle(false, true, r.tr.on)
			if err != nil {
				r.fail(err)
				break
			}
			r.cycles = append(r.cycles, c)
		} else if err := r.step(true); err != nil {
			break
		}
	}
	r.tr.on = false
	// Read before the probe and the oracle replays, which the simulation
	// would not run.
	rss := rssPeakMB()
	if w.sm {
		r.attempted++
		if err := r.checkSMPath(smBefore); err != nil {
			r.fail(err)
		}
	}

	if w.resize {
		r.attempted++
		if err := r.staticRunStats(); err != nil {
			r.fail(fmt.Errorf("resize oracle: %w", err))
		}
	} else {
		for k := 0; k < probeCycles; k++ {
			r.attempted++
			c, err := r.cycle(true, false, traced)
			if err != nil {
				r.fail(err)
				break
			}
			r.cycles = append(r.cycles, c)
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	if len(r.iters) == 0 {
		return nil, fmt.Errorf("no iteration completed")
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if traced {
		res.Metrics = r.layerMetrics()
		if err := r.tr.writeJSONL(filepath.Join(out, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = r.endToEnd(setups, rss)
	}
	return res, nil
}
