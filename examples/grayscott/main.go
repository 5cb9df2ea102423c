// Gray-Scott in situ: a real parallel reaction-diffusion simulation (four
// client ranks with halo exchange) coupled to a Colza staging area running
// the multi-isosurface + clip pipeline of the paper's Figure 3a.
//
// Rank 0 drives the in situ lifecycle and shares the pinned member view
// with the other ranks out of band (MemberView.Encode / SetView), exactly
// the 2PC-among-clients-and-servers arrangement of the paper.
//
// Run with:
//
//	go run ./examples/grayscott
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/minimpi"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
)

const (
	clientRanks  = 4
	servers      = 2
	stepsPerIter = 40
	iterations   = 5
)

// Client-side stage batching knobs (DESIGN.md §12). Batching stays off by
// default — the example then stages each block as a batch of one, straight
// from its buffer; any non-zero -stage-batch-* flag engages the batcher
// with these triggers.
var (
	batchBytes  = flag.Int("stage-batch-bytes", 0, "flush a pending batch at this many assembled payload bytes (0 = default when batching on)")
	batchBlocks = flag.Int("stage-batch-blocks", 0, "flush a pending batch at this many blocks (0 = default when batching on)")
	batchAge    = flag.Duration("stage-batch-age", 0, "flush a non-empty batch this long after its first block (0 = default when batching on)")
	batchWindow = flag.Int("stage-batch-window", 0, "bound on batches in flight per handle (0 = default when batching on); setting only this still engages batching")
)

func batchingConfig() (core.BatchConfig, bool) {
	cfg := core.BatchConfig{
		MaxBytes:  *batchBytes,
		MaxBlocks: *batchBlocks,
		MaxAge:    *batchAge,
		Window:    *batchWindow,
	}
	on := cfg.MaxBytes > 0 || cfg.MaxBlocks > 0 || cfg.MaxAge > 0 || cfg.Window > 0
	return cfg, on
}

func main() {
	flag.Parse()
	catalyst.Register()
	net := na.NewInprocNetwork()

	// Staging area.
	var srvs []*core.Server
	ssgCfg := ssg.Config{GossipPeriod: 10 * time.Millisecond}
	for i := 0; i < servers; i++ {
		cfg := core.ServerConfig{SSG: ssgCfg}
		if i > 0 {
			cfg.Bootstrap = srvs[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("gs-server%d", i), cfg)
		if err != nil {
			log.Fatal(err)
		}
		srvs = append(srvs, s)
		defer s.Shutdown()
	}
	for len(srvs[0].Group.Members()) != servers {
		time.Sleep(5 * time.Millisecond)
	}

	// Admin: the clip + three isosurface levels of Fig. 3a.
	adminEP, _ := net.Listen("gs-admin")
	adminMI := margo.NewInstance(adminEP)
	defer adminMI.Finalize()
	admin := core.NewAdminClient(adminMI)
	global := [3]int{48, 48, 48}
	pcfg, _ := json.Marshal(catalyst.IsoConfig{
		Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: 400, Height: 400,
		ScalarRange: [2]float64{0, 0.5}, ColorMap: "coolwarm",
		Clip:      &catalyst.ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: float64(global[0]) / 2},
		EmitImage: true,
	})
	for _, s := range srvs {
		if err := admin.CreatePipeline(s.Addr(), "gs-viz", catalyst.IsoPipelineType, pcfg); err != nil {
			log.Fatal(err)
		}
	}

	// Client ranks: an MPI-style world running the solver; each rank has
	// its own Colza client.
	world := minimpi.World(clientRanks)
	defer world[0].Finalize()
	var wg sync.WaitGroup
	for rank := 0; rank < clientRanks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := clientRank(net, world, rank, srvs[0].Addr()); err != nil {
				log.Printf("rank %d: %v", rank, err)
			}
		}(rank)
	}
	wg.Wait()
}

func clientRank(net *na.InprocNetwork, world []*minimpi.Comm, rank int, contact string) error {
	c := world[rank]
	ep, err := net.Listen(fmt.Sprintf("gs-client%d", rank))
	if err != nil {
		return err
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	h := client.Handle("gs-viz", contact)
	if cfg, on := batchingConfig(); on {
		h.SetBatching(cfg)
	}
	defer h.Close()

	solver := sim.NewGrayScott(c, [3]int{48, 48, 48}, sim.DefaultGrayScott())
	const viewTag = 7700

	for it := uint64(1); it <= iterations; it++ {
		if err := solver.Step(stepsPerIter); err != nil {
			return err
		}
		// Rank 0 activates (2PC) and broadcasts the pinned view.
		if rank == 0 {
			view, err := h.Activate(it)
			if err != nil {
				return err
			}
			if _, err := c.Bcast(0, viewTag+int(it), view.Encode()); err != nil {
				return err
			}
		} else {
			raw, err := c.Bcast(0, viewTag+int(it), nil)
			if err != nil {
				return err
			}
			view, err := core.DecodeMemberView(raw)
			if err != nil {
				return err
			}
			h.SetView(view)
		}

		// Every rank stages its own block.
		block := solver.Block()
		meta := core.BlockMeta{
			Field: "V", BlockID: rank, Type: "imagedata",
			Dims: block.Dims, Origin: block.Origin, Spacing: block.Spacing,
		}
		if err := h.Stage(it, meta, block.Encode()); err != nil {
			return err
		}
		// The explicit stage barrier: with batching on, every rank drains
		// its own pending batches before rank 0's Execute (a no-op when
		// batching is off).
		if err := h.Flush(it); err != nil {
			return err
		}
		if err := c.Barrier(viewTag + 500 + int(it)); err != nil {
			return err
		}

		// Rank 0 triggers execution and deactivates.
		if rank == 0 {
			results, err := h.Execute(it)
			if err != nil {
				return err
			}
			var tris int
			for _, r := range results {
				tris += int(r.Summary["triangles"])
			}
			fmt.Printf("iter %d: %d triangles across %d servers\n", it, tris, len(results))
			if len(results[0].Image) > 0 {
				name := fmt.Sprintf("grayscott-%02d.png", it)
				if err := os.WriteFile(name, results[0].Image, 0o644); err != nil {
					return err
				}
				fmt.Println("wrote", name)
			}
			if err := h.Deactivate(it); err != nil {
				return err
			}
		}
		if err := c.Barrier(viewTag + 900 + int(it)); err != nil {
			return err
		}
	}
	return nil
}
