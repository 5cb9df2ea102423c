package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"

	"colza/internal/core"
	"colza/internal/sim"
	"colza/internal/vtk"
)

// frame is one iteration's worth of staged blocks, generated from the seed
// before any timer starts. Iterations cycle through a workload's frames.
type frame struct {
	metas []core.BlockMeta
	data  [][]byte
	bytes int64
	crc   uint64 // sum of blockCRC over the frame: the checksum sink's oracle
}

func (f *frame) add(meta core.BlockMeta, b []byte) {
	f.metas = append(f.metas, meta)
	f.data = append(f.data, b)
	f.bytes += int64(len(b))
	f.crc += uint64(blockCRC(meta.BlockID, b))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockCRC is the CRC32C of a block's id and bytes. Summing it over blocks
// gives a checksum that does not depend on arrival order and that stays
// exact in the float64 of an ExecResult summary (under 2^52 for fewer than
// 2^20 blocks).
func blockCRC(id int, b []byte) uint32 {
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(id))
	return crc32.Update(crc32.Checksum(idb[:], castagnoli), castagnoli, b)
}

// byteFrame is blocks × blockLen seeded pseudo-random bytes.
func byteFrame(seed int64, blocks, blockLen int) frame {
	rng := rand.New(rand.NewSource(seed))
	var f frame
	for i := 0; i < blocks; i++ {
		b := make([]byte, blockLen)
		rng.Read(b)
		f.add(core.BlockMeta{Field: "bytes", BlockID: i, Type: "bytes"}, b)
	}
	return f
}

// grayScottFields runs a single-rank Gray-Scott solver on a global³ grid
// seeded from seed, and returns its V field after warm steps and then
// every `every` steps, n fields in all.
func grayScottFields(seed int64, global, warm, every, n int) []*vtk.ImageData {
	p := sim.DefaultGrayScott()
	p.Seed = seed
	g := sim.NewGrayScott(nil, [3]int{global, global, global}, p)
	var out []*vtk.ImageData
	steps := warm
	for i := 0; i < n; i++ {
		if err := g.Step(steps); err != nil {
			panic(err) // a nil communicator has no peers to fail
		}
		out = append(out, g.Block())
		steps = every
	}
	return out
}

// field returns img's V array.
func field(img *vtk.ImageData) []float32 {
	a, err := img.PointArray("V")
	if err != nil {
		panic(err) // sim.GrayScott.Block always carries V
	}
	return a.Data
}

// rawFieldFrame cuts the V field into blocks of blockLen bytes of raw
// little-endian float32.
func rawFieldFrame(img *vtk.ImageData, blockLen int) frame {
	v := field(img)
	raw := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(x))
	}
	var f frame
	for id := 0; len(raw) > 0; id++ {
		n := min(blockLen, len(raw))
		f.add(core.BlockMeta{Field: "V", BlockID: id, Type: "bytes"}, raw[:n:n])
		raw = raw[n:]
	}
	return f
}

// slabFrame cuts img into z-slabs that share their boundary plane (so the
// isosurface has no cracks), as encoded ImageData blocks carrying V.
// quantum > 0 rounds every value to a multiple of it.
func slabFrame(img *vtk.ImageData, slabs int, quantum float64) frame {
	v := field(img)
	nx, ny, nz := img.Dims[0], img.Dims[1], img.Dims[2]
	plane := nx * ny
	var f frame
	for s := 0; s < slabs; s++ {
		z0 := s * nz / slabs
		z1 := min((s+1)*nz/slabs, nz-1)
		blk := vtk.NewImageData([3]int{nx, ny, z1 - z0 + 1}, [3]float64{0, 0, float64(z0)}, [3]float64{1, 1, 1})
		a := blk.AddPointArray("V", 1)
		copy(a.Data, v[z0*plane:(z1+1)*plane])
		if quantum > 0 {
			for i, x := range a.Data {
				a.Data[i] = float32(math.Round(float64(x)/quantum) * quantum)
			}
		}
		f.add(core.BlockMeta{
			Field: "V", BlockID: s, Type: "imagedata",
			Dims: blk.Dims, Origin: blk.Origin, Spacing: blk.Spacing,
		}, blk.Encode())
	}
	return f
}
