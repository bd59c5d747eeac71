// Package apps emulates the three real HPC applications in the paper's
// evaluation (§IV, Figures 1 and 5):
//
//   - Enzo: adaptive-mesh cosmology simulation — cycles of restart reads,
//     compute, hierarchy/metadata small writes, and multi-megabyte
//     checkpoint dumps. Its mixed read/write/open/close/stat stream in the
//     first tens of seconds is the substrate of Figure 1.
//   - AMReX: block-structured AMR — per-cycle plotfile dumps with a header
//     and large per-rank level data, write-dominant.
//   - OpenPMD: a metadata standard for particle/mesh series — many small
//     files, attribute writes, and stats per iteration; metadata-intensive.
//
// The emulators reproduce the op-type mix, sizes, and phase structure rather
// than the physics. Params scales the cycle count and the checkpoint size;
// the compute time and OpenPMD's files per iteration are fixed.
package apps

import (
	"fmt"

	"quanterference/internal/lustre"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// App selects the emulated application.
type App int

const (
	Enzo App = iota
	AMReX
	OpenPMD
)

var appNames = [...]string{"enzo", "amrex", "openpmd"}

func (a App) String() string { return appNames[a] }

// ParseApp resolves an application by name.
func ParseApp(name string) (App, error) {
	for i, n := range appNames {
		if n == name {
			return App(i), nil
		}
	}
	return 0, fmt.Errorf("apps: unknown application %q", name)
}

// The emulation settings no caller scales: 200 ms of compute per cycle
// (OpenPMD iterations compute a quarter of that), and OpenPMD's 24 small
// files of 16 KiB per iteration.
const (
	cycleCompute   = 200 * sim.Millisecond
	openPMDFiles   = 24
	openPMDPayload = 16 << 10
)

// Params scales the emulation.
type Params struct {
	Dir   string
	Ranks int
	// Cycles is the number of simulation cycles (default 5).
	Cycles int
	// CheckpointBytes is the per-rank data dump per cycle
	// (default 4 MiB for Enzo, 8 MiB for AMReX).
	CheckpointBytes int64
}

func (p *Params) applyDefaults(app App) {
	if p.Dir == "" {
		p.Dir = "/" + app.String()
	}
	if p.Ranks == 0 {
		p.Ranks = 1
	}
	if p.Cycles == 0 {
		p.Cycles = 5
	}
	if p.CheckpointBytes == 0 {
		if app == AMReX {
			p.CheckpointBytes = 8 << 20
		} else {
			p.CheckpointBytes = 4 << 20
		}
	}
}

// Gen generates an application's op stream.
type Gen struct {
	app App
	p   Params
}

// New builds a generator.
func New(app App, p Params) *Gen {
	p.applyDefaults(app)
	return &Gen{app: app, p: p}
}

// Name implements workload.Generator.
func (g *Gen) Name() string { return g.app.String() }

// Ops implements workload.Generator.
func (g *Gen) Ops(rank int) []workload.Op {
	switch g.app {
	case Enzo:
		return g.enzoOps(rank)
	case AMReX:
		return g.amrexOps(rank)
	default:
		return g.openpmdOps(rank)
	}
}

func (g *Gen) restartPath(rank int) string {
	return fmt.Sprintf("%s/restart/RedshiftOutput.cpu%04d", g.p.Dir, rank)
}

func (g *Gen) enzoOps(rank int) []workload.Op {
	p := g.p
	var ops []workload.Op
	restart := g.restartPath(rank)
	// Startup: read the restart dump and parameter hierarchy.
	ops = append(ops, workload.Op{Kind: workload.Open, Path: restart})
	for off := int64(0); off < p.CheckpointBytes/2; off += 1 << 20 {
		ops = append(ops, workload.Op{Kind: workload.Read, Path: restart, Offset: off, Size: 1 << 20})
	}
	ops = append(ops,
		workload.Op{Kind: workload.Stat, Path: restart},
		workload.Op{Kind: workload.Close, Path: restart},
	)
	for cycle := 0; cycle < p.Cycles; cycle++ {
		dump := fmt.Sprintf("%s/DD%04d", p.Dir, cycle)
		hier := fmt.Sprintf("%s/data%04d.hierarchy.cpu%04d", dump, cycle, rank)
		data := fmt.Sprintf("%s/data%04d.cpu%04d", dump, cycle, rank)
		ops = append(ops, workload.Op{Kind: workload.Compute, Dur: cycleCompute})
		if rank == 0 {
			ops = append(ops, workload.Op{Kind: workload.Mkdir, Path: dump})
		}
		// Hierarchy metadata: small writes.
		ops = append(ops,
			workload.Op{Kind: workload.Create, Path: hier, StripeCount: 1},
			workload.Op{Kind: workload.Write, Path: hier, Size: 16 << 10},
			workload.Op{Kind: workload.Close, Path: hier},
		)
		// Grid data: the checkpoint proper.
		ops = append(ops, workload.Op{Kind: workload.Create, Path: data, StripeCount: 1})
		for off := int64(0); off < p.CheckpointBytes; off += 1 << 20 {
			n := p.CheckpointBytes - off
			if n > 1<<20 {
				n = 1 << 20
			}
			ops = append(ops, workload.Op{Kind: workload.Write, Path: data, Offset: off, Size: n})
		}
		ops = append(ops,
			workload.Op{Kind: workload.Stat, Path: data},
			workload.Op{Kind: workload.Close, Path: data},
		)
	}
	return ops
}

func (g *Gen) amrexOps(rank int) []workload.Op {
	p := g.p
	var ops []workload.Op
	for cycle := 0; cycle < p.Cycles; cycle++ {
		plt := fmt.Sprintf("%s/plt%05d", p.Dir, cycle)
		ops = append(ops, workload.Op{Kind: workload.Compute, Dur: cycleCompute})
		if rank == 0 {
			hdr := plt + "/Header"
			ops = append(ops,
				workload.Op{Kind: workload.Mkdir, Path: plt},
				workload.Op{Kind: workload.Mkdir, Path: plt + "/Level_0"},
				workload.Op{Kind: workload.Create, Path: hdr, StripeCount: 1},
				workload.Op{Kind: workload.Write, Path: hdr, Size: 8 << 10},
				workload.Op{Kind: workload.Close, Path: hdr},
			)
		}
		cell := fmt.Sprintf("%s/Level_0/Cell_D_%05d", plt, rank)
		ops = append(ops, workload.Op{Kind: workload.Create, Path: cell, StripeCount: 1})
		for off := int64(0); off < p.CheckpointBytes; off += 1 << 20 {
			n := p.CheckpointBytes - off
			if n > 1<<20 {
				n = 1 << 20
			}
			ops = append(ops, workload.Op{Kind: workload.Write, Path: cell, Offset: off, Size: n})
		}
		ops = append(ops, workload.Op{Kind: workload.Close, Path: cell})
	}
	return ops
}

func (g *Gen) openpmdOps(rank int) []workload.Op {
	p := g.p
	var ops []workload.Op
	for cycle := 0; cycle < p.Cycles; cycle++ {
		iter := fmt.Sprintf("%s/data/%08d", p.Dir, cycle)
		ops = append(ops, workload.Op{Kind: workload.Compute, Dur: cycleCompute / 4})
		if rank == 0 {
			ops = append(ops, workload.Op{Kind: workload.Mkdir, Path: iter})
		}
		// A mesh/particle record per file: create, small attribute write,
		// close — then re-stat the series so far (series scanning).
		for f := 0; f < openPMDFiles; f++ {
			path := fmt.Sprintf("%s/meshes_r%d_f%d.h5", iter, rank, f)
			ops = append(ops,
				workload.Op{Kind: workload.Create, Path: path, StripeCount: 1},
				workload.Op{Kind: workload.Write, Path: path, Size: openPMDPayload},
				workload.Op{Kind: workload.Close, Path: path},
			)
		}
		for f := 0; f < openPMDFiles; f += 4 {
			path := fmt.Sprintf("%s/meshes_r%d_f%d.h5", iter, rank, f)
			ops = append(ops, workload.Op{Kind: workload.Stat, Path: path})
		}
	}
	return ops
}

// Prepare implements workload.Generator.
func (g *Gen) Prepare(fs *lustre.FS) {
	if g.app == Enzo {
		// The restart dump read at startup.
		for r := 0; r < g.p.Ranks; r++ {
			fs.Populate(g.restartPath(r), g.p.CheckpointBytes/2, 1)
		}
	}
}
