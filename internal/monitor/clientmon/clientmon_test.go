package clientmon

import (
	"testing"

	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

func rec(kind workload.Kind, start sim.Time, dur sim.Time, size int64, targets ...int) workload.Record {
	return workload.Record{
		Workload: "t", Op: workload.Op{Kind: kind, Size: size},
		Start: start, End: start + dur, Targets: targets,
	}
}

func TestAggregationByKind(t *testing.T) {
	m := New(3, sim.Second)
	m.Record(rec(workload.Read, 0, sim.Millisecond, 1024, 0))
	m.Record(rec(workload.Write, sim.Millisecond, sim.Millisecond, 2048, 0))
	m.Record(rec(workload.Stat, 2*sim.Millisecond, sim.Millisecond, 0, 2))
	w, ok := m.Window(0)
	if !ok {
		t.Fatal("window missing")
	}
	if w[0].Reads != 1 || w[0].Writes != 1 || w[0].MetaOps != 0 {
		t.Fatalf("target0 %+v", w[0])
	}
	if w[0].ReadBytes != 1024 || w[0].WriteBytes != 2048 || w[0].TotalBytes != 3072 {
		t.Fatalf("bytes %+v", w[0])
	}
	if w[2].MetaOps != 1 || w[2].TotalOps != 1 {
		t.Fatalf("target2 %+v", w[2])
	}
	if w[1].TotalOps != 0 {
		t.Fatalf("target1 should be empty: %+v", w[1])
	}
}

func TestWindowAssignmentByStartTime(t *testing.T) {
	m := New(1, sim.Second)
	m.Record(rec(workload.Read, sim.Seconds(0.9), sim.Seconds(0.5), 100, 0))
	if _, ok := m.Window(0); !ok {
		t.Fatal("op starting in window 0 not attributed there")
	}
	if _, ok := m.Window(1); ok {
		t.Fatal("op should not appear in window 1")
	}
}

func TestMultiTargetSplitsBytesNotCounts(t *testing.T) {
	m := New(4, sim.Second)
	m.Record(rec(workload.Write, 0, sim.Millisecond, 4000, 0, 1))
	w, _ := m.Window(0)
	if w[0].Writes != 1 || w[1].Writes != 1 {
		t.Fatal("counts should apply fully to each target")
	}
	if w[0].WriteBytes != 2000 || w[1].WriteBytes != 2000 {
		t.Fatalf("bytes not split: %v %v", w[0].WriteBytes, w[1].WriteBytes)
	}
}

func TestDerivedRates(t *testing.T) {
	m := New(1, 2*sim.Second)
	m.Record(rec(workload.Read, 0, sim.Second, 4<<20, 0))
	w, _ := m.Window(0)
	if w[0].Throughput != float64(4<<20)/2 {
		t.Fatalf("throughput=%f", w[0].Throughput)
	}
	if w[0].IOPS != 0.5 {
		t.Fatalf("iops=%f", w[0].IOPS)
	}
	if w[0].IOTime != 1.0 {
		t.Fatalf("iotime=%f", w[0].IOTime)
	}
}

func TestComputeOpsIgnored(t *testing.T) {
	m := New(1, sim.Second)
	m.Record(workload.Record{Op: workload.Op{Kind: workload.Compute}, Targets: nil})
	if len(m.Windows()) != 0 {
		t.Fatal("compute op created a window")
	}
}

func TestWindowsSortedAndReset(t *testing.T) {
	m := New(1, sim.Second)
	m.Record(rec(workload.Read, sim.Seconds(5), sim.Millisecond, 10, 0))
	m.Record(rec(workload.Read, sim.Seconds(1), sim.Millisecond, 10, 0))
	m.Record(rec(workload.Read, sim.Seconds(3), sim.Millisecond, 10, 0))
	got := m.Windows()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windows %v", got)
		}
	}
}

func TestVectorMatchesFeatureNames(t *testing.T) {
	if len(FeatureNames()) != NumFeatures {
		t.Fatalf("feature names %d != %d", len(FeatureNames()), NumFeatures)
	}
	tm := TargetMetrics{Reads: 1, Writes: 2, MetaOps: 3, TotalOps: 6,
		ReadBytes: 10, WriteBytes: 20, TotalBytes: 30, IOTime: 0.5,
		Throughput: 30, IOPS: 6}
	v := tm.Vector()
	if len(v) != NumFeatures {
		t.Fatalf("vector len %d", len(v))
	}
	if v[0] != 1 || v[3] != 6 || v[6] != 30 || v[9] != 6 {
		t.Fatalf("vector order wrong: %v", v)
	}
}
