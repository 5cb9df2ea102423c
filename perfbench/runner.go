package main

import (
	"fmt"
	"time"

	"colza/internal/core"
)

// iterRec is one iteration as the simulation sees it.
type iterRec struct {
	members    int
	iter       time.Duration // Activate through Deactivate
	stage      time.Duration // first Stage through Flush
	exec       time.Duration
	activated  time.Time // when Activate returned
	bytes      int64
	res        []core.ExecResult
	traced     bool
	frameIndex int
}

// runner drives one deployment through a closed loop: one client, one
// handle, and each iteration starts only after the previous one returned.
type runner struct {
	w  *workload
	d  *deployment
	tr *tracer
	it uint64

	attempted, failed int
	errs              []string

	iters  []iterRec // timed iterations
	delta  layerDelta
	cycles []cycleRec

	// resize: run_* statistics reported by every Execute, checked at the
	// end against a static one-server run over the same inputs.
	runStats []runStat
}

type cycleRec struct {
	join, leave         time.Duration
	start, create       time.Duration
	joinConv, leaveConv time.Duration // traced cycles only
	traced              bool
}

type runStat struct {
	it    uint64
	frame int
	stats [5]float64
}

var runKeys = [5]string{"run_count", "run_sum", "run_mean", "run_min", "run_max"}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// iterate runs the next iteration. An empty iteration only activates and
// deactivates: the elastic probe uses it to move the view between
// simulation outputs without staging. A failed call or an oracle mismatch
// is returned as an error; callers count each non-empty iteration as one
// attempted operation.
func (r *runner) iterate(empty bool) (iterRec, error) {
	r.it++
	it := r.it
	h := r.d.h
	fi := frameOf(it, len(r.w.frames))
	f := &r.w.frames[fi]
	rec := iterRec{frameIndex: fi, traced: r.tr.on}
	var before *snapshot
	if r.tr.on && !empty {
		before = takeSnapshot(r.d.registries())
	}
	root := r.tr.begin("iter", it, -1)
	t0 := time.Now()
	sp := r.tr.begin("core.activate", it, root)
	view, err := h.Activate(it)
	r.tr.end(sp)
	rec.activated = time.Now()
	if err != nil {
		r.tr.end(root)
		return rec, fmt.Errorf("activate %d: %w", it, err)
	}
	rec.members = len(view.Members)
	if !empty {
		ts := time.Now()
		for i, b := range f.data {
			sp := r.tr.begin("core.stage", it, root)
			err = h.Stage(it, f.metas[i], b)
			r.tr.end(sp)
			if err != nil {
				break
			}
		}
		if err == nil {
			sp := r.tr.begin("core.flush", it, root)
			err = h.Flush(it)
			r.tr.end(sp)
		}
		rec.stage = time.Since(ts)
		rec.bytes = f.bytes
		if err == nil {
			te := time.Now()
			sp := r.tr.begin("core.execute", it, root)
			rec.res, err = h.Execute(it)
			r.tr.end(sp)
			rec.exec = time.Since(te)
		}
	}
	sp = r.tr.begin("core.deactivate", it, root)
	derr := h.Deactivate(it)
	r.tr.end(sp)
	rec.iter = time.Since(t0)
	r.tr.end(root)
	if err == nil {
		err = derr
	}
	if err != nil {
		return rec, fmt.Errorf("iteration %d: %w", it, err)
	}
	if before != nil {
		r.delta.add(before, takeSnapshot(r.d.registries()))
	}
	if !empty {
		if r.w.resize {
			if len(rec.res) == 0 {
				return rec, fmt.Errorf("iteration %d: no Execute result", it)
			}
			rs := runStat{it: it, frame: fi}
			for k, key := range runKeys {
				rs.stats[k] = rec.res[0].Summary[key]
			}
			r.runStats = append(r.runStats, rs)
		}
		if err := r.w.check(fi, rec.res); err != nil {
			return rec, fmt.Errorf("iteration %d oracle: %w", it, err)
		}
	}
	return rec, nil
}

// frameOf walks the frames back and forth (0, 1, ..., n-1, n-2, ..., 1, 0,
// 1, ...), so consecutive iterations always stage neighbouring frames of
// the simulation and no iteration pays for a jump back to the start.
func frameOf(it uint64, n int) int {
	if n == 1 {
		return 0
	}
	period := uint64(2 * (n - 1))
	k := int(it % period)
	if k >= n {
		k = 2*(n-1) - k
	}
	return k
}

// step runs one counted iteration and keeps it when timed.
func (r *runner) step(timed bool) error {
	r.attempted++
	rec, err := r.iterate(false)
	if err != nil {
		r.fail(err)
		return err
	}
	if timed {
		r.iters = append(r.iters, rec)
	}
	return nil
}

// grownIters is how many iterations a join/leave cycle runs between the
// one that pins the grown view and the leave request.
const grownIters = 6

// maxPinTries bounds the iterations a cycle waits for the view to change.
const maxPinTries = 200

// cycle grows the staging area by one newcomer and shrinks it back:
// start a server bootstrapped off the first one, create the pipeline on
// it, iterate until Activate pins the grown view (join), ask the newcomer
// to leave, iterate until Activate pins the shrunk view (leave), shut it
// down. Between the two, grownIters iterations run on the grown view. A
// traced cycle also measures how long SSG takes to converge. With empty
// set, the cycle's iterations only activate and deactivate; with timed
// set, its iterations are kept as timed iterations.
func (r *runner) cycle(empty, timed, traced bool) (cycleRec, error) {
	d := r.d
	base := d.servers[0]
	want := len(d.servers) + 1
	rec := cycleRec{traced: traced}
	t0 := time.Now()
	nc, err := d.startServer(base.Addr())
	rec.start = time.Since(t0)
	if err != nil {
		return rec, fmt.Errorf("start newcomer: %w", err)
	}
	if traced {
		rec.joinConv = converge(base, nc.Addr(), true)
	}
	fillRing(nc.Obs)
	d.servers = append(d.servers, nc)
	defer func() {
		nc.Shutdown()
		d.servers = d.servers[:want-1]
	}()
	t1 := time.Now()
	err = d.admin.CreatePipeline(nc.Addr(), d.pipeline, d.ptype, d.pconfig)
	rec.create = time.Since(t1)
	if err != nil {
		return rec, fmt.Errorf("create pipeline on newcomer: %w", err)
	}
	if rec.join, err = r.untilMembers(want, empty, timed, time.Now()); err != nil {
		return rec, fmt.Errorf("join: %w", err)
	}
	// The staging area works at its new size for a few iterations before
	// it shrinks. With these, the iteration timings of a cycle are mostly
	// steady iterations, and their medians do not sit on the edge between
	// two kinds of iteration.
	for i := 0; i < grownIters; i++ {
		if _, err := r.untilMembers(want, empty, timed, time.Now()); err != nil {
			return rec, fmt.Errorf("grown view: %w", err)
		}
	}
	tl := time.Now()
	if err := d.admin.RequestLeave(nc.Addr()); err != nil {
		return rec, fmt.Errorf("request leave: %w", err)
	}
	if traced {
		rec.leaveConv = converge(base, nc.Addr(), false)
	}
	if rec.leave, err = r.untilMembers(want-1, empty, timed, tl); err != nil {
		return rec, fmt.Errorf("leave: %w", err)
	}
	return rec, nil
}

// untilMembers iterates until an Activate pins a view of want members and
// returns the time from since to that Activate's return.
func (r *runner) untilMembers(want int, empty, timed bool, since time.Time) (time.Duration, error) {
	for try := 0; try < maxPinTries; try++ {
		if !empty {
			r.attempted++
		}
		rec, err := r.iterate(empty)
		if err != nil {
			if !empty {
				r.fail(err)
			}
			return 0, err
		}
		if timed && !empty {
			r.iters = append(r.iters, rec)
		}
		if rec.members == want {
			return rec.activated.Sub(since), nil
		}
	}
	return 0, fmt.Errorf("view never reached %d members in %d iterations", want, maxPinTries)
}

// converge polls base's SSG view until addr is in it (in) or out of it
// (!in), and returns how long that took.
func converge(base *core.Server, addr string, in bool) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < 5*time.Second {
		found := false
		for _, m := range base.Group.Members() {
			if m == addr {
				found = true
				break
			}
		}
		if found == in {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Since(t0)
}

// fillRings makes every registry's trace ring wrap.
func (r *runner) fillRings() {
	for _, reg := range r.d.registries() {
		fillRing(reg)
	}
}

// staticRunStats replays the resize run's iterations on a static
// one-server deployment and compares every Execute's run_* statistics.
func (r *runner) staticRunStats() error {
	d, err := deploy(false, "", 1, r.w.name+"-static", r.w.ptype, r.w.pconfig)
	if err != nil {
		return err
	}
	defer d.close()
	for _, want := range r.runStats {
		f := &r.w.frames[want.frame]
		if _, err := d.h.Activate(want.it); err != nil {
			return err
		}
		for i, b := range f.data {
			if err := d.h.Stage(want.it, f.metas[i], b); err != nil {
				return err
			}
		}
		res, err := d.h.Execute(want.it)
		if err != nil {
			return err
		}
		if err := d.h.Deactivate(want.it); err != nil {
			return err
		}
		for k, key := range runKeys {
			if got := res[0].Summary[key]; got != want.stats[k] {
				return fmt.Errorf("iteration %d: elastic %s = %v, static run %v", want.it, key, want.stats[k], got)
			}
		}
	}
	return nil
}
