package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/minimpi"
	"colza/internal/vtk"
)

// workload is one named benchmark input: a deployment shape, a pipeline,
// the handle's stage settings, seeded frames and an output oracle.
type workload struct {
	name    string
	servers int
	sm      bool
	ptype   string
	pconfig json.RawMessage
	codec   string // forced stage codec; "" keeps the handle's raw default
	batch   bool   // stage through the batcher (SetBatching with defaults)
	resize  bool   // iterations run inside join/leave cycles

	frames []frame
	// check validates one iteration's Execute results against the oracle.
	check func(f int, res []core.ExecResult) error

	iso []isoOracle // insitu-iso: expected output per frame
}

func init() { catalyst.Register() }

var workloadNames = []string{"stage-sm", "stage-delta", "insitu-iso", "resize"}

// Workload sizes. The stage workloads keep the per-block shape of the
// stage path (64 KiB raw blocks; 128 KiB delta blocks) and each iteration
// short enough that a run holds over a hundred iterations, so every p90
// has at least ten samples beyond it.
const (
	smBlocks   = 1024
	smBlockLen = 64 << 10

	deltaGrid     = 128 // V field of a 128³ Gray-Scott grid: 8 MiB a frame
	deltaBlockLen = 128 << 10
	deltaFrames   = 8

	isoGrid   = 64
	isoSlabs  = 8
	isoFrames = 1

	resizeGrid   = 48
	resizeSlabs  = 4
	resizeFrames = 8
	// resizeQuantum makes every staged value a multiple of 2^-16, so the
	// stats pipeline's float64 sums are exact in any summation order and
	// an elastic run can be compared with a static one for equality.
	resizeQuantum = 1.0 / 65536
)

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "stage-sm":
		w := &workload{name: name, servers: 1, sm: true, ptype: crcSinkType}
		w.frames = []frame{byteFrame(seed, smBlocks, smBlockLen)}
		w.check = w.checkCRC
		return w, nil
	case "stage-delta":
		w := &workload{name: name, servers: 1, ptype: crcSinkType, codec: "delta", batch: true}
		for _, img := range grayScottFields(seed, deltaGrid, 20, 2, deltaFrames) {
			w.frames = append(w.frames, rawFieldFrame(img, deltaBlockLen))
		}
		w.check = w.checkCRC
		return w, nil
	case "insitu-iso":
		cfg := catalyst.IsoConfig{
			Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: 400, Height: 400,
			ScalarRange: [2]float64{0, 0.5}, ColorMap: "coolwarm",
			Clip:      &catalyst.ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: isoGrid / 2},
			EmitImage: true,
		}
		pcfg, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		w := &workload{name: name, servers: 2, ptype: catalyst.IsoPipelineType, pconfig: pcfg}
		for _, img := range grayScottFields(seed, isoGrid, 40, 10, isoFrames) {
			f := slabFrame(img, isoSlabs, 0)
			o, err := isoReference(&f, cfg, w.servers)
			if err != nil {
				return nil, err
			}
			w.frames = append(w.frames, f)
			w.iso = append(w.iso, o)
		}
		w.check = w.checkIso
		return w, nil
	case "resize":
		pcfg, err := json.Marshal(catalyst.StatsConfig{Field: "V"})
		if err != nil {
			return nil, err
		}
		w := &workload{name: name, servers: 1, ptype: catalyst.StatsPipelineType, pconfig: pcfg, resize: true}
		for _, img := range grayScottFields(seed, resizeGrid, 10, 3, resizeFrames) {
			w.frames = append(w.frames, slabFrame(img, resizeSlabs, resizeQuantum))
		}
		w.check = func(int, []core.ExecResult) error { return nil } // checked against a static run at the end
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// checkCRC compares the sink's checksum over the staged bytes with the
// client's.
func (w *workload) checkCRC(f int, res []core.ExecResult) error {
	var crc, blocks float64
	for _, r := range res {
		crc += r.Summary["crc_sum"]
		blocks += r.Summary["blocks"]
	}
	want := w.frames[f]
	if blocks != float64(len(want.data)) || crc != float64(want.crc) {
		return fmt.Errorf("checksum sink saw %v blocks crc %v, want %d blocks crc %d", blocks, crc, len(want.data), want.crc)
	}
	return nil
}

// isoOracle is what catalyst.ExecuteIso produces on a frame when run
// directly over an in-process MPI world.
type isoOracle struct {
	triangles int
	png       []byte
}

// isoReference runs catalyst.ExecuteIso over a ranks-wide minimpi world
// with the blocks placed as core.DefaultPlacement places them, in staging
// order, decoded from the exact bytes the client stages.
func isoReference(f *frame, cfg catalyst.IsoConfig, ranks int) (isoOracle, error) {
	perRank := make([][]*vtk.ImageData, ranks)
	for i, b := range f.data {
		img, err := vtk.DecodeImageData(b)
		if err != nil {
			return isoOracle{}, err
		}
		r := core.DefaultPlacement(f.metas[i], ranks)
		perRank[r] = append(perRank[r], img)
	}
	world := minimpi.World(ranks)
	defer world[0].Finalize()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  isoOracle
		errs []error
	)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			st, img, err := catalyst.ExecuteIso(vtk.NewController("mpi", world[r]), perRank[r], cfg)
			var png []byte
			if err == nil && r == 0 {
				png, err = img.PNG()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			out.triangles += st.LocalTriangles
			if r == 0 {
				out.png = png
			}
		}(r)
	}
	wg.Wait()
	if len(errs) > 0 {
		return isoOracle{}, fmt.Errorf("iso reference: %v", errs[0])
	}
	return out, nil
}

// checkIso compares the staging area's triangle total and composited PNG
// with the direct ExecuteIso run.
func (w *workload) checkIso(f int, res []core.ExecResult) error {
	var tris float64
	var png []byte
	for _, r := range res {
		tris += r.Summary["triangles"]
		if r.Summary["rank"] == 0 {
			png = r.Image
		}
	}
	want := w.iso[f]
	if tris != float64(want.triangles) {
		return fmt.Errorf("iso: %v triangles, want %d", tris, want.triangles)
	}
	if !bytes.Equal(png, want.png) {
		return fmt.Errorf("iso: PNG differs from the reference (%d vs %d bytes)", len(png), len(want.png))
	}
	return nil
}
