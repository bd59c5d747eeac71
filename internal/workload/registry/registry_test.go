package registry

import (
	"strings"
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

func TestResolveEveryName(t *testing.T) {
	for _, name := range Names() {
		gen, err := Resolve(name, Spec{Dir: "/w-" + name, Ranks: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gen.Name() != name {
			t.Fatalf("resolved %q, asked for %q", gen.Name(), name)
		}
		if len(gen.Ops(0)) == 0 {
			t.Fatalf("%s generates no ops", name)
		}
	}
}

func TestUnknownNameError(t *testing.T) {
	_, err := Resolve("nope", Spec{})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "ior-easy-write") {
		t.Fatalf("error should list known names: %v", err)
	}
}

func TestScaleShrinksVolume(t *testing.T) {
	big, _ := Resolve("ior-easy-write", Spec{Dir: "/a", Ranks: 1, Scale: 1})
	small, _ := Resolve("ior-easy-write", Spec{Dir: "/b", Ranks: 1, Scale: 0.25})
	if len(small.Ops(0)) >= len(big.Ops(0)) {
		t.Fatalf("scale had no effect: %d vs %d ops", len(small.Ops(0)), len(big.Ops(0)))
	}
}

func TestResolvedGeneratorsRun(t *testing.T) {
	// Every named workload must run to completion on a fresh cluster.
	for _, name := range Names() {
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.Config{})
		fs := lustre.New(eng, net, hw.PaperProfile())
		gen, err := Resolve(name, Spec{Dir: "/run-" + name, Ranks: 2, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		finished := false
		r := &workload.Runner{
			FS: fs, Name: name, Nodes: []string{"c0", "c1"}, Ranks: 2, Gen: gen,
			OnDone: func() { finished = true },
		}
		r.Start()
		eng.RunUntil(sim.Seconds(600))
		if !finished {
			t.Fatalf("%s did not finish", name)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 16 { // 11 io500 + 2 dlio + 3 apps
		t.Fatalf("names=%d: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}
