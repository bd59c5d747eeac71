package io500

import (
	"strings"
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

func newFS() (*sim.Engine, *lustre.FS) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	return eng, lustre.New(eng, net, hw.PaperProfile())
}

func TestTaskNamesAndParsing(t *testing.T) {
	for _, task := range AllTasks() {
		parsed, err := ParseTask(task.String())
		if err != nil || parsed != task {
			t.Fatalf("round trip failed for %s", task)
		}
	}
	if _, err := ParseTask("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if len(AllTasks()) != 7 {
		t.Fatalf("want the 7 Table I tasks, got %d", len(AllTasks()))
	}
}

func TestIorEasyWriteShape(t *testing.T) {
	g := New(IorEasyWrite, Params{Ranks: 2, EasyFileBytes: 4 << 20})
	ops := g.Ops(0)
	if ops[0].Kind != workload.Create || ops[len(ops)-1].Kind != workload.Close {
		t.Fatal("missing create/close bracket")
	}
	writes := 0
	var lastEnd int64
	for _, op := range ops {
		if op.Kind != workload.Write {
			continue
		}
		if op.Offset != lastEnd {
			t.Fatalf("non-sequential write at %d, want %d", op.Offset, lastEnd)
		}
		lastEnd = op.Offset + op.Size
		writes++
	}
	if writes != 4 || lastEnd != 4<<20 {
		t.Fatalf("writes=%d end=%d", writes, lastEnd)
	}
	// Ranks get distinct files.
	if g.Ops(0)[0].Path == g.Ops(1)[0].Path {
		t.Fatal("ranks share the easy file")
	}
}

func TestIorHardStriding(t *testing.T) {
	p := Params{Ranks: 4, HardOps: 8}
	g := New(IorHardWrite, p)
	// Rank r's segment s lands at (s*Ranks + r) * 47008.
	ops := g.Ops(2)
	var offs []int64
	for _, op := range ops {
		if op.Kind == workload.Write {
			offs = append(offs, op.Offset)
			if op.Size != 47008 {
				t.Fatalf("xfer=%d, want 47008", op.Size)
			}
		}
	}
	if offs[0] != 2*47008 || offs[1] != 6*47008 {
		t.Fatalf("stride wrong: %v", offs[:2])
	}
	// All ranks share one file.
	if g.Ops(0)[0].Path != g.Ops(3)[0].Path {
		t.Fatal("hard file must be shared")
	}
}

func TestMdtEasyIsMetadataOnly(t *testing.T) {
	g := New(MdtEasyWrite, Params{Ranks: 1, MdtFiles: 10})
	for _, op := range g.Ops(0) {
		if op.Kind == workload.Read || op.Kind == workload.Write {
			t.Fatalf("mdt-easy-write must not do data I/O, got %s", op.Kind)
		}
	}
}

func TestMdtHardWriteHasSmallPayload(t *testing.T) {
	g := New(MdtHardWrite, Params{Ranks: 1, MdtFiles: 5})
	writes := 0
	for _, op := range g.Ops(0) {
		if op.Kind == workload.Write {
			writes++
			if op.Size != 3901 {
				t.Fatalf("payload=%d, want 3901", op.Size)
			}
		}
	}
	if writes != 5 {
		t.Fatalf("writes=%d, want 5", writes)
	}
}

func TestDistinctDirsDontCollide(t *testing.T) {
	a := New(MdtHardWrite, Params{Dir: "/a", Ranks: 1})
	b := New(MdtHardWrite, Params{Dir: "/b", Ranks: 1})
	if a.Ops(0)[0].Path == b.Ops(0)[0].Path {
		t.Fatal("instances with distinct dirs collided")
	}
	if !strings.HasPrefix(a.Ops(0)[0].Path, "/a/") {
		t.Fatalf("dir prefix not applied: %s", a.Ops(0)[0].Path)
	}
}

// runTask executes a task end-to-end on a fresh FS and returns the records.
func runTask(t *testing.T, task Task, p Params) []workload.Record {
	t.Helper()
	eng, fs := newFS()
	g := New(task, p)
	var recs []workload.Record
	finished := false
	r := &workload.Runner{
		FS: fs, Name: g.Name(), Nodes: []string{"c0"}, Ranks: p.Ranks, Gen: g,
		OnRecord: func(rec workload.Record) { recs = append(recs, rec) },
		OnDone:   func() { finished = true },
	}
	r.Start()
	eng.RunUntil(sim.Seconds(600))
	if !finished {
		t.Fatalf("%s did not finish", g.Name())
	}
	return recs
}

func TestAllTasksRunToCompletion(t *testing.T) {
	p := Params{
		Ranks: 2, EasyFileBytes: 4 << 20, HardOps: 20, MdtFiles: 10,
	}
	for _, task := range AllTasks() {
		recs := runTask(t, task, p)
		if len(recs) == 0 {
			t.Fatalf("%s produced no records", task)
		}
		for _, rec := range recs {
			if rec.End <= rec.Start && rec.Op.Kind.IsIO() {
				t.Fatalf("%s op %s has zero duration", task, rec.Op.Kind)
			}
		}
	}
}

func TestReadTasksPrepareTheirInputs(t *testing.T) {
	// Read tasks run standalone (no prior write phase) thanks to Prepare.
	for _, task := range []Task{IorEasyRead, IorHardRead, MdtHardRead} {
		recs := runTask(t, task, Params{Ranks: 2, EasyFileBytes: 2 << 20, HardOps: 10, MdtFiles: 5})
		reads := 0
		for _, rec := range recs {
			if rec.Op.Kind == workload.Read {
				reads++
			}
		}
		if reads == 0 {
			t.Fatalf("%s performed no reads", task)
		}
	}
}

func TestHardFileStripesAcrossAllOSTs(t *testing.T) {
	eng, fs := newFS()
	g := New(IorHardWrite, Params{Ranks: 2, HardOps: 50})
	r := &workload.Runner{
		FS: fs, Name: g.Name(), Nodes: []string{"c0"}, Ranks: 2, Gen: g,
	}
	r.Start()
	eng.Run()
	ino := fs.MDS().Lookup(g.hardPath())
	if ino == nil || len(ino.OSTs) != fs.NumOSTs() {
		t.Fatalf("hard file stripes: %+v", ino)
	}
}

func TestExtendedTasksRunToCompletion(t *testing.T) {
	if len(ExtendedTasks()) != 11 {
		t.Fatalf("extended tasks=%d, want 11", len(ExtendedTasks()))
	}
	p := Params{Ranks: 2, MdtFiles: 10}
	for _, task := range []Task{MdtEasyStat, MdtHardStat, MdtEasyDelete, MdtHardDelete} {
		recs := runTask(t, task, p)
		if len(recs) == 0 {
			t.Fatalf("%s produced no records", task)
		}
		wantKind := workload.Stat
		if task == MdtEasyDelete || task == MdtHardDelete {
			wantKind = workload.Unlink
		}
		for _, rec := range recs {
			if rec.Op.Kind != wantKind {
				t.Fatalf("%s emitted %s op", task, rec.Op.Kind)
			}
		}
	}
}

func TestExtendedTaskNamesParse(t *testing.T) {
	for _, task := range ExtendedTasks() {
		got, err := ParseTask(task.String())
		if err != nil || got != task {
			t.Fatalf("round trip failed for %s: %v", task, err)
		}
	}
	if _, err := ParseTask(""); err == nil {
		t.Fatal("empty name must not resolve")
	}
}

func TestDeleteTasksEmptyTheNamespace(t *testing.T) {
	eng, fs := newFS()
	g := New(MdtHardDelete, Params{Ranks: 1, MdtFiles: 5})
	done := false
	r := &workload.Runner{FS: fs, Name: g.Name(), Nodes: []string{"c0"}, Ranks: 1, Gen: g,
		OnDone: func() { done = true }}
	r.Start()
	eng.Run()
	if !done {
		t.Fatal("did not finish")
	}
	for f := 0; f < 5; f++ {
		if fs.MDS().Lookup(g.mdtHardPath(0, f)) != nil {
			t.Fatalf("file %d survived delete", f)
		}
	}
}

func TestBadTaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(numTableITasks, Params{})
}

// TestOpsExactLength pins Ops to one allocation: every task's stream is
// allocated at exactly its final length, at two scales and for every rank.
func TestOpsExactLength(t *testing.T) {
	for _, p := range []Params{
		{Ranks: 4, EasyFileBytes: 3<<20 + 5, HardOps: 9, MdtFiles: 7},
		{Ranks: 2, EasyFileBytes: 32<<20 + 1<<19, HardOps: 300, MdtFiles: 200},
	} {
		for _, task := range ExtendedTasks() {
			g := New(task, p)
			for rank := 0; rank < p.Ranks; rank++ {
				ops := g.Ops(rank)
				if len(ops) == 0 || len(ops) != cap(ops) {
					t.Fatalf("%s rank %d (%+v): len %d cap %d", task, rank, p, len(ops), cap(ops))
				}
			}
		}
	}
}
