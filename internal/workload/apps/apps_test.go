package apps

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

func opMix(g *Gen, rank int) map[workload.Kind]int {
	mix := map[workload.Kind]int{}
	for _, op := range g.Ops(rank) {
		mix[op.Kind]++
	}
	return mix
}

func TestParseApp(t *testing.T) {
	for _, a := range []App{Enzo, AMReX, OpenPMD} {
		got, err := ParseApp(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip failed for %s", a)
		}
	}
	if _, err := ParseApp("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEnzoHasMixedOpTypes(t *testing.T) {
	// Figure 1 relies on Enzo issuing reads, writes, opens, closes and
	// stats within its first seconds.
	mix := opMix(New(Enzo, Params{Ranks: 2}), 0)
	for _, k := range []workload.Kind{
		workload.Read, workload.Write, workload.Open,
		workload.Close, workload.Stat, workload.Create,
	} {
		if mix[k] == 0 {
			t.Fatalf("enzo stream missing %s ops: %v", k, mix)
		}
	}
}

func TestAMReXIsWriteDominant(t *testing.T) {
	mix := opMix(New(AMReX, Params{Ranks: 2}), 1)
	if mix[workload.Write] == 0 {
		t.Fatal("no writes")
	}
	if mix[workload.Read] != 0 {
		t.Fatal("amrex emulator should be write-only for data")
	}
	// Data volume dominates metadata count.
	if mix[workload.Write] < mix[workload.Create]+mix[workload.Stat] {
		t.Fatalf("not write dominant: %v", mix)
	}
}

func TestOpenPMDIsMetadataIntensive(t *testing.T) {
	mix := opMix(New(OpenPMD, Params{Ranks: 1}), 0)
	meta := mix[workload.Create] + mix[workload.Close] + mix[workload.Stat] + mix[workload.Mkdir]
	data := mix[workload.Read] + mix[workload.Write]
	if meta <= data {
		t.Fatalf("openpmd should be metadata-heavy: meta=%d data=%d", meta, data)
	}
	// And its writes are small.
	for _, op := range New(OpenPMD, Params{Ranks: 1}).Ops(0) {
		if op.Kind == workload.Write && op.Size > 64<<10 {
			t.Fatalf("openpmd write of %d bytes", op.Size)
		}
	}
}

func TestRankZeroOwnsSharedMetadata(t *testing.T) {
	// Only rank 0 creates plotfile directories/headers; others write data.
	g := New(AMReX, Params{Ranks: 4})
	if opMix(g, 0)[workload.Mkdir] == 0 {
		t.Fatal("rank 0 should mkdir")
	}
	if opMix(g, 3)[workload.Mkdir] != 0 {
		t.Fatal("non-zero rank should not mkdir")
	}
}

func TestAllAppsRunToCompletion(t *testing.T) {
	for _, a := range []App{Enzo, AMReX, OpenPMD} {
		eng, fs := newFS()
		g := New(a, Params{Ranks: 2, Cycles: 2, CheckpointBytes: 1 << 20})
		finished := false
		var recs []workload.Record
		r := &workload.Runner{
			FS: fs, Name: g.Name(), Nodes: []string{"c0", "c1"}, Ranks: 2, Gen: g,
			OnRecord: func(rec workload.Record) { recs = append(recs, rec) },
			OnDone:   func() { finished = true },
		}
		r.Start()
		eng.RunUntil(sim.Seconds(300))
		if !finished {
			t.Fatalf("%s did not finish", a)
		}
		if len(recs) == 0 {
			t.Fatalf("%s produced no records", a)
		}
		// All ops must have valid target attributions.
		for _, rec := range recs {
			if len(rec.Targets) == 0 {
				t.Fatalf("%s record %s without targets", a, rec.Op.Kind)
			}
		}
	}
}

func TestDistinctDirsIsolateInstances(t *testing.T) {
	a := New(Enzo, Params{Dir: "/inst0", Ranks: 1})
	b := New(Enzo, Params{Dir: "/inst1", Ranks: 1})
	pathsA := map[string]bool{}
	for _, op := range a.Ops(0) {
		if op.Path != "" {
			pathsA[op.Path] = true
		}
	}
	for _, op := range b.Ops(0) {
		if op.Path != "" && pathsA[op.Path] {
			t.Fatalf("instances share path %s", op.Path)
		}
	}
}
