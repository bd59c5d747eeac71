package workload

import (
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
)

func newFS() (*sim.Engine, *lustre.FS) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	return eng, lustre.New(eng, net, hw.PaperProfile())
}

// scriptGen is a fixed op sequence for every rank.
type scriptGen struct {
	name string
	ops  func(rank int) []Op
	prep func(fs *lustre.FS)
}

func (s scriptGen) Name() string { return s.name }
func (s scriptGen) Ops(rank int) []Op {
	return s.ops(rank)
}
func (s scriptGen) Prepare(fs *lustre.FS) {
	if s.prep != nil {
		s.prep(fs)
	}
}

func basicScript(rank int) []Op {
	path := "/w/rank" + string(rune('0'+rank))
	return []Op{
		{Kind: Create, Path: path, StripeCount: 1},
		{Kind: Write, Path: path, Offset: 0, Size: 1 << 20},
		{Kind: Compute, Dur: 10 * sim.Millisecond},
		{Kind: Read, Path: path, Offset: 0, Size: 1 << 20},
		{Kind: Stat, Path: path},
		{Kind: Close, Path: path},
	}
}

func TestRunnerEmitsRecordsInOrder(t *testing.T) {
	eng, fs := newFS()
	var recs []Record
	done := false
	r := &Runner{
		FS: fs, Name: "basic", Nodes: []string{"c0"}, Ranks: 1,
		Gen:      scriptGen{name: "basic", ops: basicScript},
		OnRecord: func(rec Record) { recs = append(recs, rec) },
		OnDone:   func() { done = true },
	}
	r.Start()
	eng.Run()
	if !done {
		t.Fatal("OnDone never fired")
	}
	// Compute ops are not recorded: 5 I/O ops.
	if len(recs) != 5 {
		t.Fatalf("records=%d, want 5", len(recs))
	}
	wantKinds := []Kind{Create, Write, Read, Stat, Close}
	for i, rec := range recs {
		if rec.Op.Kind != wantKinds[i] {
			t.Fatalf("record %d kind %s, want %s", i, rec.Op.Kind, wantKinds[i])
		}
		if rec.Seq <= 0 && i > 0 {
			t.Fatalf("record %d missing seq", i)
		}
		if rec.End < rec.Start {
			t.Fatalf("record %d negative duration", i)
		}
	}
	// Metadata ops target the MDT; data ops target OSTs.
	if got := recs[0].Targets; len(got) != 1 || got[0] != fs.MDTIndex() {
		t.Fatalf("create targets %v", got)
	}
	if got := recs[1].Targets; len(got) != 1 || got[0] == fs.MDTIndex() {
		t.Fatalf("write targets %v", got)
	}
}

func TestRunnerMultiRankPlacement(t *testing.T) {
	eng, fs := newFS()
	counts := map[int]int{}
	r := &Runner{
		FS: fs, Name: "multi", Nodes: []string{"c0", "c1"}, Ranks: 4,
		Gen:      scriptGen{name: "multi", ops: basicScript},
		OnRecord: func(rec Record) { counts[rec.Rank]++ },
	}
	r.Start()
	eng.Run()
	for rank := 0; rank < 4; rank++ {
		if counts[rank] != 5 {
			t.Fatalf("rank %d records=%d, want 5", rank, counts[rank])
		}
	}
}

func TestRunnerLoopAndStop(t *testing.T) {
	eng, fs := newFS()
	maxIter := 0
	r := &Runner{
		FS: fs, Name: "loop", Nodes: []string{"c0"}, Ranks: 1, Loop: true,
		Gen: scriptGen{name: "loop", ops: basicScript},
		OnRecord: func(rec Record) {
			if rec.Iter > maxIter {
				maxIter = rec.Iter
			}
		},
	}
	r.Start()
	eng.Schedule(sim.Seconds(2), r.Stop)
	eng.RunUntil(sim.Seconds(10))
	if maxIter < 2 {
		t.Fatalf("loop reached iter %d, want >=2", maxIter)
	}
	if r.Running() {
		t.Fatal("runner still active after Stop")
	}
}

func TestRunnerComputeTakesTime(t *testing.T) {
	eng, fs := newFS()
	gen := scriptGen{name: "compute", ops: func(int) []Op {
		return []Op{{Kind: Compute, Dur: sim.Seconds(1)}}
	}}
	r := &Runner{FS: fs, Name: "c", Nodes: []string{"c0"}, Ranks: 1, Gen: gen}
	r.Start()
	eng.Run()
	if eng.Now() != sim.Seconds(1) {
		t.Fatalf("elapsed %d", eng.Now())
	}
}

func TestRunnerReadWithoutOpenPanics(t *testing.T) {
	eng, fs := newFS()
	gen := scriptGen{name: "bad", ops: func(int) []Op {
		return []Op{{Kind: Read, Path: "/nope", Size: 64}}
	}}
	r := &Runner{FS: fs, Name: "bad", Nodes: []string{"c0"}, Ranks: 1, Gen: gen}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Start()
	eng.Run()
}

func TestRecordDurationAndIterSeq(t *testing.T) {
	eng, fs := newFS()
	var recs []Record
	r := &Runner{
		FS: fs, Name: "iter", Nodes: []string{"c0"}, Ranks: 1, Loop: true,
		Gen:      scriptGen{name: "iter", ops: basicScript},
		OnRecord: func(rec Record) { recs = append(recs, rec) },
	}
	r.Start()
	eng.Schedule(sim.Seconds(1), r.Stop)
	eng.RunUntil(sim.Seconds(5))
	seen := map[[2]int]bool{}
	for _, rec := range recs {
		key := [2]int{rec.Iter, rec.Seq}
		if rec.Iter > 0 && seen[key] {
			t.Fatalf("duplicate (iter,seq) %v", key)
		}
		seen[key] = true
		if rec.Duration() < 0 {
			t.Fatal("negative duration")
		}
	}
	// Same seq across iterations is expected; verify iter 0 and 1 both
	// contain seq 1 (the write).
	if !seen[[2]int{0, 1}] || !seen[[2]int{1, 1}] {
		t.Fatalf("matching key (iter,seq) missing: %v", seen)
	}
}

func TestSequenceConcatenatesPhases(t *testing.T) {
	a := scriptGen{name: "a", ops: func(int) []Op {
		return []Op{{Kind: Create, Path: "/a", StripeCount: 1}, {Kind: Close, Path: "/a"}}
	}}
	b := scriptGen{name: "b", ops: func(int) []Op {
		return []Op{{Kind: Stat, Path: "/a"}}
	}}
	seq := NewSequence("", a, b)
	if seq.Name() != "a+b" {
		t.Fatalf("name %q", seq.Name())
	}
	ops := seq.Ops(0)
	if len(ops) != 3 {
		t.Fatalf("ops=%d", len(ops))
	}
	if seq.PhaseOf(0, 0) != 0 || seq.PhaseOf(0, 1) != 0 || seq.PhaseOf(0, 2) != 1 {
		t.Fatalf("phase mapping wrong: %d %d %d",
			seq.PhaseOf(0, 0), seq.PhaseOf(0, 1), seq.PhaseOf(0, 2))
	}
	if seq.Phases() != 2 || seq.PhaseName(1) != "b" {
		t.Fatal("phase metadata wrong")
	}
}

func TestSequencePhaseOfWithoutOpsCall(t *testing.T) {
	a := scriptGen{name: "a", ops: basicScript}
	seq := NewSequence("s", a, a)
	// PhaseOf must work even when Ops was generated in another process
	// (e.g. when analysing persisted traces).
	if seq.PhaseOf(0, len(basicScript(0))) != 1 {
		t.Fatal("lazy phase bounds wrong")
	}
}

func TestSequenceRunsEndToEnd(t *testing.T) {
	eng, fs := newFS()
	seq := NewSequence("two-phase",
		scriptGen{name: "p0", ops: basicScript},
		scriptGen{name: "p1", ops: func(rank int) []Op {
			path := "/w/rank" + string(rune('0'+rank))
			return []Op{
				{Kind: Open, Path: path},
				{Kind: Read, Path: path, Size: 1 << 20},
				{Kind: Close, Path: path},
			}
		}},
	)
	finished := false
	phases := map[int]int{}
	r := &Runner{
		FS: fs, Name: "seq", Nodes: []string{"c0"}, Ranks: 2, Gen: seq,
		OnRecord: func(rec Record) { phases[seq.PhaseOf(rec.Rank, rec.Seq)]++ },
		OnDone:   func() { finished = true },
	}
	r.Start()
	eng.Run()
	if !finished {
		t.Fatal("sequence did not finish")
	}
	if phases[0] == 0 || phases[1] == 0 {
		t.Fatalf("phase attribution: %v", phases)
	}
}

func TestRunnerPauseResume(t *testing.T) {
	eng, fs := newFS()
	var recs []Record
	r := &Runner{
		FS: fs, Name: "pause", Nodes: []string{"c0"}, Ranks: 2,
		Gen:      scriptGen{name: "pause", ops: basicScript},
		OnRecord: func(rec Record) { recs = append(recs, rec) },
	}
	r.Pause() // gate closed before Start: ranks hold at their first op
	r.Start()
	eng.Run()
	if len(recs) != 0 {
		t.Fatalf("paused runner emitted %d records", len(recs))
	}
	if !r.Paused() || !r.Running() {
		t.Fatalf("paused=%v running=%v, want both true", r.Paused(), r.Running())
	}
	// Both ranks hold their first op (Create, not I/O-sized): 0 held bytes.
	if r.HeldBytes() != 0 {
		t.Fatalf("HeldBytes=%d before any data op", r.HeldBytes())
	}
	r.Resume()
	eng.Run()
	if len(recs) != 10 {
		t.Fatalf("records=%d after resume, want 10", len(recs))
	}
	if r.Running() {
		t.Fatal("runner still active after completing")
	}
	if r.HeldBytes() != 0 {
		t.Fatalf("HeldBytes=%d after resume, want 0", r.HeldBytes())
	}
}

func TestRunnerPauseAccountsHeldBytes(t *testing.T) {
	eng, fs := newFS()
	r := &Runner{
		FS: fs, Name: "held", Nodes: []string{"c0"}, Ranks: 1,
		Gen: scriptGen{name: "held", ops: basicScript},
	}
	// Pause right after the create completes: the rank arrives at the
	// 1 MiB write and holds it at the gate.
	r.Start()
	eng.Schedule(sim.Microsecond, r.Pause)
	eng.Run()
	if !r.Paused() {
		t.Fatal("runner not paused")
	}
	if r.HeldBytes() != 1<<20 {
		t.Fatalf("HeldBytes=%d, want %d (the held write)", r.HeldBytes(), 1<<20)
	}
	r.Resume()
	eng.Run()
	if r.Running() {
		t.Fatal("runner did not finish after resume")
	}
}

func TestRunnerStopWhileHeld(t *testing.T) {
	eng, fs := newFS()
	var recs []Record
	r := &Runner{
		FS: fs, Name: "stop-held", Nodes: []string{"c0"}, Ranks: 1, Loop: true,
		Gen:      scriptGen{name: "stop-held", ops: basicScript},
		OnRecord: func(rec Record) { recs = append(recs, rec) },
	}
	r.Start()
	eng.Schedule(sim.Seconds(1), r.Pause)
	eng.RunUntil(sim.Seconds(2))
	if !r.Running() {
		t.Fatal("runner exited while held")
	}
	n := len(recs)
	r.Stop()
	r.Resume() // held rank re-enters exec, sees stopped, exits
	eng.RunUntil(sim.Seconds(3))
	if r.Running() {
		t.Fatal("runner still active after Stop+Resume")
	}
	if len(recs) != n {
		t.Fatalf("stopped rank executed %d more ops after Resume", len(recs)-n)
	}
}

// A looping rank whose generator returns no ops used to restart its empty
// stream from inside itself until the process died of a stack overflow. It
// must finish like a non-looping rank, while ranks with ops keep looping.
func TestLoopingRunnerEmptyStreamFinishes(t *testing.T) {
	eng, fs := newFS()
	done := false
	r := &Runner{
		FS: fs, Name: "empty", Nodes: []string{"c0"}, Ranks: 1, Loop: true,
		Gen:    scriptGen{name: "empty", ops: func(int) []Op { return nil }},
		OnDone: func() { done = true },
	}
	r.Start()
	eng.Run()
	if !done || r.Running() {
		t.Fatalf("empty looping rank: done=%v running=%v", done, r.Running())
	}

	eng, fs = newFS()
	var recs []Record
	r = &Runner{
		FS: fs, Name: "mixed", Nodes: []string{"c0"}, Ranks: 2, Loop: true,
		Gen: scriptGen{name: "mixed", ops: func(rank int) []Op {
			if rank == 1 {
				return nil
			}
			return []Op{{Kind: Mkdir, Path: "/d"}, {Kind: Stat, Path: "/d"}}
		}},
		OnRecord: func(rec Record) { recs = append(recs, rec) },
	}
	r.Start()
	eng.RunUntil(sim.Seconds(1))
	if !r.Running() {
		t.Fatal("looping rank with ops stopped when its empty peer finished")
	}
	if len(recs) == 0 || recs[len(recs)-1].Iter == 0 {
		t.Fatalf("rank 0 did not loop: %d records", len(recs))
	}
	for _, rec := range recs {
		if rec.Rank != 0 {
			t.Fatalf("record from empty rank %d", rec.Rank)
		}
	}
	r.Stop()
	eng.Run()
	if r.Running() {
		t.Fatal("runner still active after Stop")
	}
}

// TestRankStepAllocs pins the per-rank continuations: once warm, a looping
// rank issues and records a metadata op without allocating, and a
// create-write-read-close iteration allocates only the handle Create returns.
func TestRankStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []Op
		want float64
	}{
		{"stat", []Op{{Kind: Stat, Path: "/d"}}, 0},
		{"create-write-read-close", []Op{
			{Kind: Create, Path: "/d/f", StripeCount: 2},
			{Kind: Write, Path: "/d/f", Offset: 0, Size: 2 << 20},
			{Kind: Read, Path: "/d/f", Offset: 0, Size: 2 << 20},
			{Kind: Close, Path: "/d/f"},
		}, 1},
	} {
		eng, fs := newFS()
		fs.PopulateDir("/d")
		records := 0
		r := &Runner{
			FS: fs, Name: tc.name, Nodes: []string{"c0"}, Ranks: 1, Loop: true,
			Gen:      scriptGen{name: tc.name, ops: func(int) []Op { return tc.ops }},
			OnRecord: func(Record) { records++ },
		}
		r.Start()
		iteration := func() {
			for target := records + len(tc.ops); records < target; {
				eng.Step()
			}
		}
		if allocs := testing.AllocsPerRun(50, iteration); allocs != tc.want {
			t.Errorf("%s: %v allocations per iteration, want %v", tc.name, allocs, tc.want)
		}
	}
}

// TestRunnerIOOpsBoundsRecords pins IOOps, the count a caller sizes its
// record buffer with: a runner without Loop emits exactly one record per
// I/O op of every rank's stream, and Compute ops do not count.
func TestRunnerIOOpsBoundsRecords(t *testing.T) {
	eng, fs := newFS()
	records := 0
	r := &Runner{
		FS: fs, Name: "basic", Nodes: []string{"c0", "c1"}, Ranks: 3,
		Gen:      scriptGen{name: "basic", ops: basicScript},
		OnRecord: func(Record) { records++ },
	}
	r.Start()
	if r.IOOps() != 15 {
		t.Fatalf("IOOps = %d after Start, want 3 ranks x 5 I/O ops", r.IOOps())
	}
	eng.Run()
	if records != r.IOOps() {
		t.Fatalf("%d records, IOOps %d", records, r.IOOps())
	}
}
