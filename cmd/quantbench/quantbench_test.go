package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"quanterference/internal/experiments"
	"quanterference/internal/obs"
)

// The study pipeline re-implements experiments.IO500Dataset so it can time
// each collect call; both must build the same dataset.
func TestStudyPipelineMatchesIO500Dataset(t *testing.T) {
	col := &studyResult{}
	if err := collectIO500(warmScale, col); err != nil {
		t.Fatal(err)
	}
	want := experiments.IO500Dataset(experiments.DatasetConfig{Scale: warmScale}).Digest()
	if got := col.ds.Digest(); got != want {
		t.Fatalf("pipeline digest %s, experiments.IO500Dataset digest %s", got, want)
	}
	if want != warmDigest {
		t.Fatalf("scale %g digest %s, pinned %s", float64(warmScale), want, warmDigest)
	}
}

// A request that stalls delays the requests scheduled behind it, and the
// open-loop generator charges that wait to them: their latency runs from
// when they were due, not from when they were finally sent.
func TestOpenLoopChargesStall(t *testing.T) {
	const n, gap, stalled = 30, 2 * time.Millisecond, 5
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	res := openLoop(1, due, time.Minute, func(i int) error {
		if i == stalled {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	if sent, failed := res.count(); sent != n || failed != 0 {
		t.Fatalf("sent %d failed %d, want %d and 0", sent, failed, n)
	}
	if next := res.lat[stalled+1]; next < 15 {
		t.Errorf("request behind the stall: latency %.1f ms, want at least 15 ms", next)
	}
	if res.late[stalled+1] < 15 {
		t.Errorf("request behind the stall sent %.1f ms late, want at least 15 ms", res.late[stalled+1])
	}
	if before := res.lat[stalled-1]; before >= 15 {
		t.Errorf("request before the stall: latency %.1f ms, want well under 15 ms", before)
	}
}

// Requests left unsent at the cutoff count as failed.
func TestOpenLoopCutoffLeavesBacklogUnsent(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	res := openLoop(1, due, time.Millisecond, func(int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if sent, failed := res.count(); sent != 1 || failed != 2 {
		t.Fatalf("sent %d failed %d, want 1 and 2", sent, failed)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON is the part of BENCHMARK.json the metric tables mirror.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// Every metric the benchmark can emit is named validly, listed once, and
// listed in BENCHMARK.json with the same unit, direction and bound.
func TestMetricsListedInBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	seen := map[string]bool{}
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
				t.Errorf("bad metric name %q", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, program %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, want)
		}
	}
	for i, m := range bj.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, want)
		}
	}

	// Names built at run time: one per profile bucket and fixed rate.
	var dynamic []string
	for _, l := range layerPackages {
		dynamic = append(dynamic, l+".self_frac")
	}
	for _, b := range []string{"gc", "runtime", "rng", "other"} {
		dynamic = append(dynamic, b+".self_frac")
	}
	l := map[string]float64{}
	serveLayers(l, deltaStats(&obs.Snapshot{}, &obs.Snapshot{}), 1)
	for k := range l {
		dynamic = append(dynamic, k)
	}
	for _, r := range fixedRates {
		dynamic = append(dynamic, fleetRateMetric(r))
	}
	for _, n := range dynamic {
		if _, ok := metricByName(n); !ok {
			t.Errorf("emitted metric %q is not listed", n)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"quanterference/internal/sim.(*Engine).Run"}, "engine"},
		{[]string{"container/heap.Push", "quanterference/internal/sim.(*Engine).Schedule"}, "engine"},
		{[]string{"math/rand.(*rngSource).Seed", "math/rand.NewSource", "quanterference/internal/sim.NewRNG"}, "rng"},
		{[]string{"quanterference/internal/sim.(*RNG).Float64", "quanterference/internal/disk.(*Disk).service"}, "rng"},
		{[]string{"quanterference/internal/netsim.(*Net).recompute"}, "netsim"},
		{[]string{"quanterference/internal/lustre.(*OST).write"}, "lustre"},
		{[]string{"quanterference/internal/fault.(*Injector).apply"}, "lustre"},
		{[]string{"quanterference/internal/blockqueue.(*Queue).Submit"}, "blockqueue"},
		{[]string{"quanterference/internal/disk.(*Disk).Submit"}, "disk"},
		{[]string{"quanterference/internal/workload/io500.(*Gen).Next"}, "workload"},
		{[]string{"quanterference/internal/monitor/window.Assemble"}, "monitor"},
		{[]string{"quanterference/internal/label.(*Labeler).Degradations"}, "label"},
		{[]string{"quanterference/internal/nn.(*Dense).apply"}, "nn"},
		{[]string{"runtime.memmove", "quanterference/internal/nn.(*Dense).Forward"}, "nn"},
		{[]string{"quanterference/internal/ml.(*KernelModel).LossAndGrad"}, "ml"},
		{[]string{"quanterference/internal/core.(*Framework).PredictBatch"}, "core"},
		{[]string{"quanterference/internal/par.MapE.func1"}, "core"},
		{[]string{"quanterference/internal/dataset.FitScaler"}, "dataset"},
		{[]string{"quanterference/internal/online.(*Detector).ObserveWindow"}, "online"},
		{[]string{"quanterference/internal/forecast.PoolInto"}, "forecast"},
		{[]string{"quanterference/internal/serve.gatherQueue[go.shape.*quanterference/internal/serve.request]"}, "serve"},
		{[]string{"quanterference/internal/fleet.(*Coordinator).rank"}, "fleet"},
		{[]string{"quanterference/internal/shadow.matHash"}, "shadow"},
		{[]string{"quanterference/internal/obs.(*Counter).Inc"}, "obs"},
		{[]string{"strconv.ryuFtoaShortest", "encoding/json.floatEncoder.encode"}, "http"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}, "http"},
		{[]string{"runtime.mallocgc", "quanterference/internal/sim.(*Engine).Schedule"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.growslice", "quanterference/internal/nn.(*Dense).Forward"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"main.refKernels"}, "bench"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData"}, "bench"},
		{[]string{"sync.(*Mutex).Lock"}, "other"},
		{[]string{"text/tabwriter.(*Writer).Write"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// A real CPU profile decodes, and its samples land in the bench bucket.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	refSink += spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, _, total := profileBuckets(samples)
	if total == 0 {
		t.Skip("profile has no samples")
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench bucket holds %.2f of %d samples, want most of them (%v)", shares["bench"], total, shares)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		b    []float64
		want string
	}{
		{scale(1.0), "no worse"},
		{scale(1.05), "no worse"},
		{scale(1.2), "regressed"},
		{scale(0.8), "better"},
		{[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(lat, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %q, want %q", c.b, got, c.want)
		}
	}
	rps := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(rps, base, scale(0.8)); got != "regressed" {
		t.Errorf("throughput down 20%%: %q, want regressed", got)
	}
}
