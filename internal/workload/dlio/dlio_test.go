package dlio

import (
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

func TestUnet3DReadsWholeSamples(t *testing.T) {
	g := New(Unet3D, Params{Ranks: 1, Samples: 8, SampleBytes: 2 << 20, Epochs: 1})
	ops := g.Ops(0)
	opens, reads, closes, computes := 0, 0, 0, 0
	var bytes int64
	for _, op := range ops {
		switch op.Kind {
		case workload.Open:
			opens++
		case workload.Read:
			reads++
			bytes += op.Size
		case workload.Close:
			closes++
		case workload.Compute:
			computes++
		}
	}
	if opens != 8 || closes != 8 || computes != 8 {
		t.Fatalf("opens=%d closes=%d computes=%d, want 8 each", opens, closes, computes)
	}
	if bytes != 8*(2<<20) {
		t.Fatalf("bytes=%d, want full dataset", bytes)
	}
}

func TestUnet3DEpochOrderIsShuffled(t *testing.T) {
	g := New(Unet3D, Params{Ranks: 1, Samples: 16, Epochs: 2, Seed: 7})
	var epochPaths [2][]string
	epoch, opens := 0, 0
	for _, op := range g.Ops(0) {
		if op.Kind == workload.Open {
			if opens == 16 {
				epoch = 1
			}
			epochPaths[epoch] = append(epochPaths[epoch], op.Path)
			opens++
		}
	}
	same := true
	for i := range epochPaths[0] {
		if epochPaths[0][i] != epochPaths[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epoch order not reshuffled")
	}
	// But both epochs cover the same sample set.
	set := map[string]int{}
	for _, p := range epochPaths[0] {
		set[p]++
	}
	for _, p := range epochPaths[1] {
		set[p]--
	}
	for p, n := range set {
		if n != 0 {
			t.Fatalf("epoch coverage differs at %s", p)
		}
	}
}

func TestUnet3DRanksPartitionSamples(t *testing.T) {
	p := Params{Ranks: 4, Samples: 16, Epochs: 1, Seed: 3}
	seen := map[string]int{}
	for r := 0; r < 4; r++ {
		for _, op := range New(Unet3D, p).Ops(r) {
			if op.Kind == workload.Open {
				seen[op.Path]++
			}
		}
	}
	if len(seen) != 16 {
		t.Fatalf("ranks covered %d distinct samples, want 16", len(seen))
	}
}

func TestBERTReadsAreSmallAndAligned(t *testing.T) {
	g := New(BERT, Params{Ranks: 1, Steps: 50, Seed: 5})
	reads := 0
	for _, op := range g.Ops(0) {
		if op.Kind != workload.Read {
			continue
		}
		reads++
		if op.Size != 128<<10 {
			t.Fatalf("read size %d", op.Size)
		}
		if op.Offset%4096 != 0 {
			t.Fatalf("unaligned offset %d", op.Offset)
		}
		if op.Offset+op.Size > 32<<20 {
			t.Fatalf("read past shard end: %d", op.Offset)
		}
	}
	if reads != 50 {
		t.Fatalf("reads=%d, want 50", reads)
	}
}

func TestOpsDeterministicPerSeed(t *testing.T) {
	a := New(BERT, Params{Ranks: 2, Steps: 30, Seed: 11}).Ops(1)
	b := New(BERT, Params{Ranks: 2, Steps: 30, Seed: 11}).Ops(1)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	c := New(BERT, Params{Ranks: 2, Steps: 30, Seed: 12}).Ops(1)
	diff := false
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestBothModelsRunToCompletion(t *testing.T) {
	for _, m := range []Model{Unet3D, BERT} {
		eng, fs := newFS()
		g := New(m, Params{Ranks: 2, Samples: 8, SampleBytes: 1 << 20, Epochs: 1, Steps: 20})
		finished := false
		recs := 0
		r := &workload.Runner{
			FS: fs, Name: g.Name(), Nodes: []string{"c0", "c1"}, Ranks: 2, Gen: g,
			OnRecord: func(workload.Record) { recs++ },
			OnDone:   func() { finished = true },
		}
		r.Start()
		eng.RunUntil(sim.Seconds(300))
		if !finished {
			t.Fatalf("%s did not finish", m)
		}
		if recs == 0 {
			t.Fatalf("%s produced no records", m)
		}
	}
}

// TestCheckpointingDisabledByDefault: both loaders only read; DLIO's
// checkpoint dumps are not emulated.
func TestCheckpointingDisabledByDefault(t *testing.T) {
	for _, m := range []Model{Unet3D, BERT} {
		g := New(m, Params{Ranks: 1, Samples: 8, Epochs: 1, Steps: 10})
		for _, op := range g.Ops(0) {
			if op.Kind == workload.Write {
				t.Fatalf("%s: the loader must be read-only", m)
			}
		}
	}
}
