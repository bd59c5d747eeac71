// Package io500 implements generators for the seven IO500 benchmark tasks
// the paper uses in Table I and as interference workloads: the IOR "easy"
// (per-rank file, large sequential transfers) and "hard" (shared file, small
// strided 47008-byte transfers) data patterns, and the MDTest "easy" (empty
// per-rank-directory file creates) and "hard" (shared-directory files with
// 3901-byte payloads) metadata patterns. The transfer sizes are IO500's
// own and fixed; Params scales file sizes and counts.
package io500

import (
	"fmt"

	"quanterference/internal/lustre"
	"quanterference/internal/workload"
)

// Task selects one IO500 benchmark task. The first seven are the paper's
// Table I selection; the rest complete the IO500 metadata suite.
type Task int

const (
	IorEasyRead Task = iota
	IorHardRead
	MdtHardRead
	IorEasyWrite
	IorHardWrite
	MdtEasyWrite
	MdtHardWrite
	numTableITasks

	// The remaining IO500 mdtest phases, beyond the Table I selection.
	MdtEasyStat   = numTableITasks + iota - 7
	MdtHardStat   // stat files in the shared directory
	MdtEasyDelete // unlink the per-rank-directory files
	MdtHardDelete // unlink the shared-directory files
	numTasks
)

var taskNames = [...]string{
	"ior-easy-read", "ior-hard-read", "mdt-hard-read",
	"ior-easy-write", "ior-hard-write", "mdt-easy-write", "mdt-hard-write",
	"", // numTableITasks sentinel
	"mdt-easy-stat", "mdt-hard-stat", "mdt-easy-delete", "mdt-hard-delete",
}

func (t Task) String() string { return taskNames[t] }

// AllTasks returns the seven tasks in the row/column order of Table I.
func AllTasks() []Task {
	out := make([]Task, numTableITasks)
	for i := range out {
		out[i] = Task(i)
	}
	return out
}

// ExtendedTasks returns every implemented IO500 task: the Table I seven
// plus the stat and delete mdtest phases.
func ExtendedTasks() []Task {
	out := AllTasks()
	for t := MdtEasyStat; t < numTasks; t++ {
		out = append(out, t)
	}
	return out
}

// ParseTask resolves a task by its benchmark name.
func ParseTask(name string) (Task, error) {
	for i, n := range taskNames {
		if n != "" && n == name {
			return Task(i), nil
		}
	}
	return 0, fmt.Errorf("io500: unknown task %q", name)
}

// The IO500 transfer sizes: ior-easy moves 1 MiB per call, ior-hard the
// required 47008 bytes, and mdtest-hard writes and reads the required
// 3901-byte payload per file.
const (
	easyXfer     int64 = 1 << 20
	hardXfer     int64 = 47008
	mdtHardBytes int64 = 3901
)

// Params scales a task. Defaults give runs of a few simulated seconds per
// rank, preserving each pattern's character; the transfer sizes are
// IO500's own and not scaled.
type Params struct {
	// Dir is the namespace prefix; every concurrent instance must use a
	// distinct Dir.
	Dir string
	// Ranks must match the Runner's rank count (shared-file offset math).
	Ranks int
	// EasyFileBytes is the per-rank ior-easy file size (default 32 MiB).
	EasyFileBytes int64
	// HardOps is the per-rank segment count for ior-hard (default 200).
	HardOps int
	// MdtFiles is the per-rank file count for mdtest tasks (default 100).
	MdtFiles int
}

func (p *Params) applyDefaults() {
	if p.Dir == "" {
		p.Dir = "/io500"
	}
	if p.Ranks == 0 {
		p.Ranks = 1
	}
	if p.EasyFileBytes == 0 {
		p.EasyFileBytes = 32 << 20
	}
	if p.HardOps == 0 {
		p.HardOps = 200
	}
	if p.MdtFiles == 0 {
		p.MdtFiles = 100
	}
}

// Gen is an IO500 task generator.
type Gen struct {
	task Task
	p    Params
}

// New builds a generator for the task.
func New(task Task, p Params) *Gen {
	p.applyDefaults()
	if task < 0 || task >= numTasks || task == numTableITasks {
		panic("io500: bad task")
	}
	return &Gen{task: task, p: p}
}

// Name implements workload.Generator.
func (g *Gen) Name() string { return g.task.String() }

func (g *Gen) easyPath(rank int) string {
	return fmt.Sprintf("%s/ior-easy/rank%d", g.p.Dir, rank)
}

func (g *Gen) hardPath() string { return g.p.Dir + "/ior-hard/file" }

func (g *Gen) mdtEasyPath(rank, f int) string {
	return fmt.Sprintf("%s/mdt-easy/dir%d/f%d", g.p.Dir, rank, f)
}

func (g *Gen) mdtHardPath(rank, f int) string {
	return fmt.Sprintf("%s/mdt-hard/r%d.f%d", g.p.Dir, rank, f)
}

// numOps is the length of every rank's stream, so Ops allocates it once.
func (g *Gen) numOps() int {
	p := g.p
	switch g.task {
	case IorEasyWrite, IorEasyRead:
		n := 2
		if p.EasyFileBytes > 0 {
			n += int((p.EasyFileBytes + easyXfer - 1) / easyXfer)
		}
		return n
	case IorHardWrite, IorHardRead:
		return 2 + max(p.HardOps, 0)
	case MdtEasyWrite:
		return 1 + 2*max(p.MdtFiles, 0)
	case MdtHardWrite, MdtHardRead:
		return 3 * max(p.MdtFiles, 0)
	}
	return max(p.MdtFiles, 0) // the stat and delete phases: one op per file
}

// Ops implements workload.Generator.
func (g *Gen) Ops(rank int) []workload.Op {
	p := g.p
	ops := make([]workload.Op, 0, g.numOps())
	switch g.task {
	case IorEasyWrite:
		path := g.easyPath(rank)
		ops = append(ops, workload.Op{Kind: workload.Create, Path: path, StripeCount: 1})
		for off := int64(0); off < p.EasyFileBytes; off += easyXfer {
			n := min64(easyXfer, p.EasyFileBytes-off)
			ops = append(ops, workload.Op{Kind: workload.Write, Path: path, Offset: off, Size: n})
		}
		ops = append(ops, workload.Op{Kind: workload.Close, Path: path})

	case IorEasyRead:
		path := g.easyPath(rank)
		ops = append(ops, workload.Op{Kind: workload.Open, Path: path})
		for off := int64(0); off < p.EasyFileBytes; off += easyXfer {
			n := min64(easyXfer, p.EasyFileBytes-off)
			ops = append(ops, workload.Op{Kind: workload.Read, Path: path, Offset: off, Size: n})
		}
		ops = append(ops, workload.Op{Kind: workload.Close, Path: path})

	case IorHardWrite, IorHardRead:
		path := g.hardPath()
		kind := workload.Write
		open := workload.Op{Kind: workload.Create, Path: path, StripeCount: 1 << 10}
		if g.task == IorHardRead {
			kind = workload.Read
			open = workload.Op{Kind: workload.Open, Path: path}
		}
		ops = append(ops, open)
		for seg := 0; seg < p.HardOps; seg++ {
			off := (int64(seg)*int64(p.Ranks) + int64(rank)) * hardXfer
			ops = append(ops, workload.Op{Kind: kind, Path: path, Offset: off, Size: hardXfer})
		}
		ops = append(ops, workload.Op{Kind: workload.Close, Path: path})

	case MdtEasyWrite:
		ops = append(ops, workload.Op{Kind: workload.Mkdir,
			Path: fmt.Sprintf("%s/mdt-easy/dir%d", p.Dir, rank)})
		for f := 0; f < p.MdtFiles; f++ {
			path := g.mdtEasyPath(rank, f)
			ops = append(ops,
				workload.Op{Kind: workload.Create, Path: path, StripeCount: 1},
				workload.Op{Kind: workload.Close, Path: path},
			)
		}

	case MdtHardWrite:
		for f := 0; f < p.MdtFiles; f++ {
			path := g.mdtHardPath(rank, f)
			ops = append(ops,
				workload.Op{Kind: workload.Create, Path: path, StripeCount: 1},
				workload.Op{Kind: workload.Write, Path: path, Size: mdtHardBytes},
				workload.Op{Kind: workload.Close, Path: path},
			)
		}

	case MdtHardRead:
		for f := 0; f < p.MdtFiles; f++ {
			path := g.mdtHardPath(rank, f)
			ops = append(ops,
				workload.Op{Kind: workload.Open, Path: path},
				workload.Op{Kind: workload.Read, Path: path, Size: mdtHardBytes},
				workload.Op{Kind: workload.Close, Path: path},
			)
		}

	case MdtEasyStat:
		for f := 0; f < p.MdtFiles; f++ {
			ops = append(ops, workload.Op{Kind: workload.Stat, Path: g.mdtEasyPath(rank, f)})
		}

	case MdtHardStat:
		for f := 0; f < p.MdtFiles; f++ {
			ops = append(ops, workload.Op{Kind: workload.Stat, Path: g.mdtHardPath(rank, f)})
		}

	// The delete phases unlink the files a prior phase created (Prepare
	// stands in for it); they are single-shot — not meaningful as looping
	// interference, since the namespace empties.
	case MdtEasyDelete:
		for f := 0; f < p.MdtFiles; f++ {
			ops = append(ops, workload.Op{Kind: workload.Unlink, Path: g.mdtEasyPath(rank, f)})
		}

	case MdtHardDelete:
		for f := 0; f < p.MdtFiles; f++ {
			ops = append(ops, workload.Op{Kind: workload.Unlink, Path: g.mdtHardPath(rank, f)})
		}
	}
	return ops
}

// Prepare implements workload.Generator: read tasks consume files written by
// a prior phase, which Populate stands in for.
func (g *Gen) Prepare(fs *lustre.FS) {
	p := g.p
	switch g.task {
	case IorEasyRead:
		for r := 0; r < p.Ranks; r++ {
			fs.Populate(g.easyPath(r), p.EasyFileBytes, 1)
		}
	case IorHardRead:
		total := int64(p.HardOps) * int64(p.Ranks) * hardXfer
		fs.Populate(g.hardPath(), total, 1<<10)
	case MdtHardRead, MdtHardStat, MdtHardDelete:
		for r := 0; r < p.Ranks; r++ {
			for f := 0; f < p.MdtFiles; f++ {
				fs.Populate(g.mdtHardPath(r, f), mdtHardBytes, 1)
			}
		}
	case MdtEasyStat, MdtEasyDelete:
		for r := 0; r < p.Ranks; r++ {
			for f := 0; f < p.MdtFiles; f++ {
				fs.Populate(g.mdtEasyPath(r, f), 0, 1)
			}
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
