// Package dlio emulates the DLIO benchmark's deep-learning data-loader I/O,
// in the two configurations the paper trains on: Unet3D (large whole-sample
// files read in random order each epoch) and BERT (small random reads from
// large packed shards). Both interleave reads with compute, producing the
// bursty, read-dominant pattern the paper's second dataset covers.
//
// The loaders only read: DLIO's checkpoint dumps are not emulated. Params
// scales the dataset and the run length; the shard layout, the record and
// transfer sizes and the per-step compute are fixed.
package dlio

import (
	"fmt"

	"quanterference/internal/lustre"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// Model selects the emulated data loader.
type Model int

const (
	Unet3D Model = iota
	BERT
)

func (m Model) String() string {
	if m == Unet3D {
		return "dlio-unet3d"
	}
	return "dlio-bert"
}

// The loader settings no caller scales: BERT's four packed shards of
// 32 MiB, each step reading one 128 KiB record; Unet3D's whole-sample reads
// in 1 MiB transfers; and 50 ms of training compute after each sample (a
// fifth of that after each BERT step).
const (
	bertShards     = 4
	bertShardBytes = 32 << 20
	bertReadBytes  = 128 << 10
	sampleXfer     = 1 << 20
	stepCompute    = 50 * sim.Millisecond
)

// Params scales the emulation. Defaults are scaled-down but shape-preserving
// versions of the DLIO defaults (Unet3D samples are ~140 MB in reality).
type Params struct {
	Dir   string
	Ranks int
	// Unet3D: dataset of Samples files, SampleBytes each.
	Samples     int   // default 64
	SampleBytes int64 // default 4 MiB
	Epochs      int   // default 2
	// BERT: Steps random record reads per rank.
	Steps int // default 100
	Seed  int64
}

func (p *Params) applyDefaults() {
	if p.Dir == "" {
		p.Dir = "/dlio"
	}
	if p.Ranks == 0 {
		p.Ranks = 1
	}
	if p.Samples == 0 {
		p.Samples = 64
	}
	if p.SampleBytes == 0 {
		p.SampleBytes = 4 << 20
	}
	if p.Epochs == 0 {
		p.Epochs = 2
	}
	if p.Steps == 0 {
		p.Steps = 100
	}
}

// Gen generates the loader's op stream.
type Gen struct {
	model Model
	p     Params
}

// New builds a generator.
func New(model Model, p Params) *Gen {
	p.applyDefaults()
	return &Gen{model: model, p: p}
}

// Name implements workload.Generator.
func (g *Gen) Name() string { return g.model.String() }

func (g *Gen) samplePath(i int) string {
	return fmt.Sprintf("%s/unet3d/sample%04d.npz", g.p.Dir, i)
}

func (g *Gen) shardPath(i int) string {
	return fmt.Sprintf("%s/bert/shard%02d.tfrecord", g.p.Dir, i)
}

// Ops implements workload.Generator.
func (g *Gen) Ops(rank int) []workload.Op {
	p := g.p
	rng := sim.NewRNG(p.Seed ^ 0xd110).Derive(int64(rank))
	var ops []workload.Op
	switch g.model {
	case Unet3D:
		for epoch := 0; epoch < p.Epochs; epoch++ {
			// The permutation is a collective: all ranks derive the same
			// epoch order and read disjoint slices of it.
			perm := sim.NewRNG(p.Seed ^ 0xd110).Derive(int64(epoch)).Perm(p.Samples)
			// Each rank reads its shard of the permutation.
			for i := rank; i < len(perm); i += p.Ranks {
				path := g.samplePath(perm[i])
				ops = append(ops, workload.Op{Kind: workload.Open, Path: path})
				for off := int64(0); off < p.SampleBytes; off += sampleXfer {
					n := min(p.SampleBytes-off, sampleXfer)
					ops = append(ops, workload.Op{Kind: workload.Read, Path: path, Offset: off, Size: n})
				}
				ops = append(ops,
					workload.Op{Kind: workload.Close, Path: path},
					workload.Op{Kind: workload.Compute, Dur: stepCompute},
				)
			}
		}
	case BERT:
		// Open every shard once, then sample random records.
		for s := 0; s < bertShards; s++ {
			ops = append(ops, workload.Op{Kind: workload.Open, Path: g.shardPath(s)})
		}
		for step := 0; step < p.Steps; step++ {
			shard := rng.Intn(bertShards)
			off := rng.Int63n((bertShardBytes-bertReadBytes)/4096) * 4096
			ops = append(ops,
				workload.Op{Kind: workload.Read, Path: g.shardPath(shard), Offset: off, Size: bertReadBytes},
				workload.Op{Kind: workload.Compute, Dur: stepCompute / 5},
			)
		}
		for s := 0; s < bertShards; s++ {
			ops = append(ops, workload.Op{Kind: workload.Close, Path: g.shardPath(s)})
		}
	}
	return ops
}

// Prepare implements workload.Generator: the training dataset exists before
// the loader runs.
func (g *Gen) Prepare(fs *lustre.FS) {
	p := g.p
	switch g.model {
	case Unet3D:
		for i := 0; i < p.Samples; i++ {
			fs.Populate(g.samplePath(i), p.SampleBytes, 1)
		}
	case BERT:
		for s := 0; s < bertShards; s++ {
			fs.Populate(g.shardPath(s), bertShardBytes, 2)
		}
	}
}
