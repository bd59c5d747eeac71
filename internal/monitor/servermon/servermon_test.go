package servermon

import (
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

func newFS() (*sim.Engine, *lustre.FS) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	return eng, lustre.New(eng, net, hw.PaperProfile())
}

func TestFeatureNamesShape(t *testing.T) {
	if NumFeatures != 3*NumSeries {
		t.Fatalf("NumFeatures=%d", NumFeatures)
	}
	names := FeatureNames()
	if len(names) != NumFeatures {
		t.Fatalf("names=%d", len(names))
	}
	if names[0] != "srv_completed_ios_sum" || names[2] != "srv_completed_ios_std" {
		t.Fatalf("name order: %v", names[:3])
	}
}

func TestBadWindowPanics(t *testing.T) {
	_, fs := newFS()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(fs, sim.Seconds(1.5))
}

func TestIdleSystemProducesZeroVectors(t *testing.T) {
	eng, fs := newFS()
	m := New(fs, 2*sim.Second)
	eng.RunUntil(sim.Seconds(6.5))
	wins := m.Windows()
	if len(wins) != 3 {
		t.Fatalf("windows=%v, want 3 finalized", wins)
	}
	v, ok := m.Window(0)
	if !ok || len(v) != fs.NumTargets() {
		t.Fatalf("window 0 shape: %d targets", len(v))
	}
	for tgt, vec := range v {
		if len(vec) != NumFeatures {
			t.Fatalf("target %d vector len %d", tgt, len(vec))
		}
		for i, x := range vec {
			if x != 0 {
				t.Fatalf("idle system nonzero feature %d on target %d: %f", i, tgt, x)
			}
		}
	}
}

func TestBusyOSTShowsActivity(t *testing.T) {
	eng, fs := newFS()
	m := New(fs, 2*sim.Second)
	g := io500.New(io500.IorEasyWrite, io500.Params{Ranks: 2, EasyFileBytes: 16 << 20})
	r := &workload.Runner{FS: fs, Name: "w", Nodes: []string{"c0"}, Ranks: 2, Gen: g}
	r.Start()
	eng.RunUntil(sim.Seconds(4.5))
	v, ok := m.Window(0)
	if !ok {
		t.Fatal("window 0 missing")
	}
	// Some OST must show sectors written; the MDT must show completed IOs
	// (create journal commits).
	sawWrite := false
	for tgt := 0; tgt < fs.NumOSTs(); tgt++ {
		if v[tgt][6] > 0 { // srv_sectors_written_sum (series 2, stat 0 -> index 2*3+0)
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Fatalf("no OST sector writes visible: %v", v)
	}
	mdt := v[fs.MDTIndex()]
	if mdt[0] == 0 { // srv_completed_ios_sum
		t.Fatal("MDT shows no completed I/O despite creates")
	}
}

func TestQueueMetricsGrowUnderBacklog(t *testing.T) {
	// Two heavy write workloads on one OST should produce visibly larger
	// queue-time features than a single light one.
	runCase := func(heavy bool) float64 {
		eng, fs := newFS()
		m := New(fs, 2*sim.Second)
		ranks := 1
		if heavy {
			ranks = 6
		}
		g := io500.New(io500.IorHardWrite, io500.Params{Ranks: ranks, HardOps: 400})
		r := &workload.Runner{FS: fs, Name: "w", Nodes: []string{"c0", "c1"}, Ranks: ranks, Gen: g}
		r.Start()
		eng.RunUntil(sim.Seconds(4.5))
		var maxQT float64
		for tgt := 0; tgt < fs.NumOSTs(); tgt++ {
			if v, ok := m.Window(0); ok {
				qt := v[tgt][18] // srv_queue_time_sum (series 6 -> 6*3)
				if qt > maxQT {
					maxQT = qt
				}
			}
		}
		return maxQT
	}
	light := runCase(false)
	heavy := runCase(true)
	if heavy <= light {
		t.Fatalf("queue time should grow with backlog: light=%f heavy=%f", light, heavy)
	}
}

func TestStopHaltsSampling(t *testing.T) {
	eng, fs := newFS()
	m := New(fs, sim.Second)
	eng.RunUntil(sim.Seconds(2.5))
	m.Stop()
	nBefore := len(m.Windows())
	eng.RunUntil(sim.Seconds(10))
	if len(m.Windows()) != nBefore {
		t.Fatal("sampling continued after Stop")
	}
}
