package window

import (
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/monitor/clientmon"
	"quanterference/internal/monitor/servermon"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

func TestFeatureNamesMatchWidth(t *testing.T) {
	if len(FeatureNames()) != NumFeatures {
		t.Fatalf("names=%d width=%d", len(FeatureNames()), NumFeatures)
	}
	if NumFeatures != clientmon.NumFeatures+servermon.NumFeatures {
		t.Fatal("width mismatch")
	}
}

func TestAssembleZeroFills(t *testing.T) {
	m := Assemble(3, nil, nil)
	if len(m) != 3 {
		t.Fatalf("targets=%d", len(m))
	}
	for _, vec := range m {
		if len(vec) != NumFeatures {
			t.Fatalf("vector len %d", len(vec))
		}
		for _, x := range vec {
			if x != 0 {
				t.Fatal("zero-fill violated")
			}
		}
	}
}

func TestAssembleOrdersClientThenServer(t *testing.T) {
	client := make([]clientmon.TargetMetrics, 2)
	client[1].Reads = 7
	server := [][]float64{make([]float64, servermon.NumFeatures), make([]float64, servermon.NumFeatures)}
	server[1][0] = 9
	m := Assemble(2, client, server)
	if m[1][0] != 7 {
		t.Fatalf("client features first: %v", m[1][:3])
	}
	if m[1][clientmon.NumFeatures] != 9 {
		t.Fatalf("server features after client: %v", m[1][clientmon.NumFeatures:clientmon.NumFeatures+3])
	}
}

func TestCollectEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := lustre.New(eng, net, hw.PaperProfile())
	cm := clientmon.New(fs.NumTargets(), sim.Second)
	sm := servermon.New(fs, sim.Second)
	g := io500.New(io500.IorEasyWrite, io500.Params{Ranks: 2, EasyFileBytes: 8 << 20})
	r := &workload.Runner{
		FS: fs, Name: "w", Nodes: []string{"c0"}, Ranks: 2, Gen: g,
		OnRecord: cm.Record,
	}
	r.Start()
	eng.RunUntil(sim.Seconds(10))
	mats := Collect(fs.NumTargets(), cm, sm)
	if len(mats) == 0 {
		t.Fatal("no windows collected")
	}
	for idx, mat := range mats {
		if len(mat) != fs.NumTargets() {
			t.Fatalf("window %d has %d targets", idx, len(mat))
		}
		for _, vec := range mat {
			if len(vec) != NumFeatures {
				t.Fatalf("window %d vector len %d", idx, len(vec))
			}
		}
	}
	// The write activity must be visible in both halves of some vector.
	foundClient, foundServer := false, false
	for _, mat := range mats {
		for _, vec := range mat {
			if vec[1] > 0 { // cli_writes
				foundClient = true
			}
			for _, x := range vec[clientmon.NumFeatures:] {
				if x > 0 {
					foundServer = true
				}
			}
		}
	}
	if !foundClient || !foundServer {
		t.Fatalf("activity missing: client=%v server=%v", foundClient, foundServer)
	}
}
