package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"quanterference/internal/par"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	s := New()
	h := s.Histogram("c", "i", "lat", []float64{10, 100, 1000})
	// Bounds are inclusive upper bounds; above the last bound is overflow.
	for _, v := range []float64{5, 10, 10.5, 100, 1000, 1001} {
		h.Observe(v)
	}
	snap := s.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	want := []uint64{2, 2, 1, 1} // (<=10)x2, (<=100)x2, (<=1000)x1, overflow x1
	if len(hv.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(hv.Counts), len(want))
	}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hv.Counts[i], w)
		}
	}
	if hv.Count != 6 {
		t.Errorf("Count = %d, want 6", hv.Count)
	}
	if wantSum := 5 + 10 + 10.5 + 100 + 1000 + 1001.0; hv.Sum != wantSum {
		t.Errorf("Sum = %g, want %g", hv.Sum, wantSum)
	}
	if got := hv.Mean(); got != hv.Sum/6 {
		t.Errorf("Mean = %g, want %g", got, hv.Sum/6)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	tb := TimeBuckets()
	if len(tb) != 13 || tb[0] != 1e3 {
		t.Fatalf("TimeBuckets = %v", tb)
	}
	for i := 1; i < len(tb); i++ {
		if tb[i] <= tb[i-1] {
			t.Fatalf("TimeBuckets not increasing at %d: %v", i, tb)
		}
	}
}

// TestConcurrentMutation exercises the shared-sink path the experiment
// drivers rely on: many par.Map workers hammering the same handles. Run with
// -race; the assertions also verify no update is lost.
func TestConcurrentMutation(t *testing.T) {
	s := New()
	const workers, perWorker = 32, 1000
	par.Map(workers, func(i int) {
		// Each worker re-registers the handles, as concurrent RunE calls
		// sharing one sink do; registration must dedup to one handle.
		c := s.Counter("eng", "", "events")
		g := s.Gauge("eng", "", "depth")
		h := s.Histogram("eng", "", "lat", []float64{10, 100})
		for j := 0; j < perWorker; j++ {
			c.Inc()
			g.Max(float64(i*perWorker + j))
			h.Observe(float64(j % 150))
		}
	})
	snap := s.Snapshot()
	if v, ok := snap.Counter("eng", "", "events"); !ok || v != workers*perWorker {
		t.Errorf("counter = %d (ok=%v), want %d", v, ok, workers*perWorker)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != workers*perWorker-1 {
		t.Errorf("gauge max = %v, want %d", snap.Gauges, workers*perWorker-1)
	}
	if snap.Histograms[0].Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", snap.Histograms[0].Count, workers*perWorker)
	}
}

func TestSameKeySameHandle(t *testing.T) {
	s := New()
	if s.Counter("a", "b", "c") != s.Counter("a", "b", "c") {
		t.Error("same counter key returned distinct handles")
	}
	if s.Gauge("a", "b", "c") != s.Gauge("a", "b", "c") {
		t.Error("same gauge key returned distinct handles")
	}
	h1 := s.Histogram("a", "b", "c", []float64{1, 2})
	h2 := s.Histogram("a", "b", "c", []float64{5, 6, 7}) // bounds fixed at first registration
	if h1 != h2 {
		t.Error("same histogram key returned distinct handles")
	}
}

func TestNilSafety(t *testing.T) {
	var s *Sink
	c := s.Counter("x", "", "n")
	g := s.Gauge("x", "", "n")
	h := s.Histogram("x", "", "n", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil sink must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Max(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read as zero")
	}
	s.EnableTrace(10)
	if s.TraceEnabled() {
		t.Error("nil sink cannot enable tracing")
	}
	s.Span("x", "", "op", 0, 1)
	if s.TraceSpans() != 0 || s.TraceDropped() != 0 {
		t.Error("nil sink must hold no spans")
	}
	if snap := s.Snapshot(); !snap.Empty() {
		t.Error("nil sink snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Errorf("WriteTrace on nil sink: %v", err)
	}
}

func TestTraceLimit(t *testing.T) {
	s := New()
	// Spans are dropped, not recorded, before EnableTrace.
	s.Span("c", "i", "early", 0, 1)
	if s.TraceSpans() != 0 {
		t.Fatal("span recorded before EnableTrace")
	}
	s.EnableTrace(2)
	if !s.TraceEnabled() {
		t.Fatal("TraceEnabled = false after EnableTrace")
	}
	for i := 0; i < 5; i++ {
		s.Span("c", "i", "op", int64(i), 1)
	}
	if s.TraceSpans() != 2 {
		t.Errorf("TraceSpans = %d, want 2", s.TraceSpans())
	}
	if s.TraceDropped() != 3 {
		t.Errorf("TraceDropped = %d, want 3", s.TraceDropped())
	}
}

// TestWriteTraceGolden pins the exact Chrome trace-event JSON byte output:
// metadata rows first (process, then one named thread per component/instance
// sorted), then complete events sorted by start time, timestamps in
// microseconds.
func TestWriteTraceGolden(t *testing.T) {
	s := New()
	s.EnableTrace(0)
	s.Span("disk", "sda", "write", 1000, 2000)
	s.Span("ost", "ost0", "flush", 500, 1500)
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"quanterference simulation"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"disk/sda"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"ost/ost0"}},` +
		`{"name":"flush","cat":"ost","ph":"X","ts":0.5,"dur":1.5,"pid":1,"tid":2},` +
		`{"name":"write","cat":"disk","ph":"X","ts":1,"dur":2,"pid":1,"tid":1}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != golden {
		t.Errorf("trace JSON mismatch:\ngot:  %s\nwant: %s", got, golden)
	}
	// And it must round-trip as valid JSON for about:tracing.
	var decoded struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 5 {
		t.Errorf("events = %d, want 5", len(decoded.TraceEvents))
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := New()
	s.Counter("disk", "d0", "requests").Add(3)
	s.Counter("disk", "d1", "requests").Add(4)
	s.Counter("ost", "ost0", "flushes").Inc()
	snap := s.Snapshot()
	if snap.Empty() {
		t.Fatal("snapshot empty after registration")
	}
	if v, ok := snap.Counter("disk", "d1", "requests"); !ok || v != 4 {
		t.Errorf("Counter(disk,d1,requests) = %d, %v", v, ok)
	}
	if _, ok := snap.Counter("disk", "d2", "requests"); ok {
		t.Error("Counter found a key that was never registered")
	}
	if total := snap.CounterTotal("disk", "requests"); total != 7 {
		t.Errorf("CounterTotal = %d, want 7", total)
	}
	out := snap.Render()
	for _, want := range []string{"disk/d0/requests", "disk/d1/requests", "ost/ost0/flushes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering.
	if snap.Counters[0].Key.String() != "disk/d0/requests" {
		t.Errorf("first counter = %s, want disk/d0/requests", snap.Counters[0].Key)
	}
}

func TestLinearBuckets(t *testing.T) {
	b := LinearBuckets(1, 1, 4)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("LinearBuckets = %v, want %v", b, want)
		}
	}
	for _, bad := range []func(){
		func() { LinearBuckets(0, 1, 0) },
		func() { LinearBuckets(0, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad bucket spec did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestSnapshotWriteJSON pins /v1/stats' wire format: key-sorted maps for
// counters and gauges, histogram objects with bounds/counts/mean, and a
// valid empty document for a nil snapshot.
func TestSnapshotWriteJSON(t *testing.T) {
	s := New()
	s.Counter("serve", "", "requests").Add(7)
	s.Gauge("serve", "", "inflight").Set(3)
	h := s.Histogram("serve", "", "batch_size", LinearBuckets(1, 1, 4))
	h.Observe(1)
	h.Observe(3)
	h.Observe(9) // overflow

	var buf bytes.Buffer
	if err := s.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]uint64  `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms []struct {
			Key    string    `json:"key"`
			Bounds []float64 `json:"bounds"`
			Counts []uint64  `json:"counts"`
			Count  uint64    `json:"count"`
			Sum    float64   `json:"sum"`
			Mean   float64   `json:"mean"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["serve/requests"] != 7 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	if doc.Gauges["serve/inflight"] != 3 {
		t.Fatalf("gauges = %v", doc.Gauges)
	}
	if len(doc.Histograms) != 1 {
		t.Fatalf("histograms = %+v", doc.Histograms)
	}
	hv := doc.Histograms[0]
	if hv.Key != "serve/batch_size" || hv.Count != 3 || hv.Sum != 13 {
		t.Fatalf("histogram = %+v", hv)
	}
	wantCounts := []uint64{1, 0, 1, 0, 1}
	for i := range wantCounts {
		if hv.Counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", hv.Counts, wantCounts)
		}
	}
	if hv.Mean != 13.0/3 {
		t.Fatalf("mean = %v", hv.Mean)
	}

	buf.Reset()
	var nilSnap *Snapshot
	if err := nilSnap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"counters": {}`) {
		t.Fatalf("nil snapshot JSON = %s", buf.String())
	}
}
