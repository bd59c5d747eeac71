// Package obs is the simulator-wide observability layer: a metrics registry
// (counters, gauges, histograms keyed by component/instance/name) plus a
// structured simulation-event tracer with Chrome trace-event JSON export
// (load the file in about:tracing or https://ui.perfetto.dev).
//
// Design constraints, in order:
//
//  1. Nil safety. Every method works on a nil *Sink, nil *Counter, nil
//     *Gauge, and nil *Histogram, doing nothing. Instrumented components
//     keep metric handles that are simply nil when no sink is attached, so
//     the un-instrumented hot path costs exactly one branch per event.
//  2. Zero allocation on the hot path. Handles are registered once, at
//     Instrument time; Inc/Add/Set/Observe touch only pre-allocated atomics.
//     Trace spans append fixed-size structs to a bounded buffer.
//  3. Safe under concurrent simulations. Experiment drivers fan whole runs
//     out across cores (internal/par); a single Sink may be shared by many
//     engines, so all mutation is atomic or mutex-guarded.
//
// The metric names threaded through the simulator deliberately mirror the
// paper's monitoring substrate: the blockqueue/disk counters are the
// /proc/diskstats fields behind Table II's server-side features, the
// ost/mds counters are the Lustre server stats LASSi-style tools scrape,
// and the client readahead counters are the Darshan-style client view.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Key identifies one metric stream: a component kind ("disk", "ost",
// "netsim", ...), the instance within it ("ost3", "mdt", a node name; may be
// empty for singletons), and the metric name.
type Key struct {
	Component string
	Instance  string
	Name      string
}

func (k Key) String() string {
	if k.Instance == "" {
		return k.Component + "/" + k.Name
	}
	return k.Component + "/" + k.Instance + "/" + k.Name
}

func keyLess(a, b Key) bool {
	if a.Component != b.Component {
		return a.Component < b.Component
	}
	if a.Instance != b.Instance {
		return a.Instance < b.Instance
	}
	return a.Name < b.Name
}

// Counter is a monotonically increasing uint64. The zero value is usable;
// a nil Counter silently discards updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 cell with set/max semantics. A nil Gauge discards.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Max raises the gauge to v if v is larger than the current value.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into buckets with inclusive upper bounds;
// values above the last bound land in an overflow bucket. A nil Histogram
// discards observations.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; overflow past the end.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n exponentially spaced bounds: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("obs: bad bucket spec start=%g factor=%g n=%d", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TimeBuckets are the default latency bounds in simulated nanoseconds:
// 1 µs up to ~16 s in powers of four (13 bounds + overflow).
func TimeBuckets() []float64 { return ExpBuckets(1e3, 4, 13) }

// LinearBuckets returns n evenly spaced bounds: start, start+step, ...
// Suited to small integer-valued distributions (batch sizes, queue depths)
// where exponential spacing would collapse everything into two buckets.
func LinearBuckets(start, step float64, n int) []float64 {
	if n <= 0 || step <= 0 {
		panic(fmt.Sprintf("obs: bad bucket spec start=%g step=%g n=%d", start, step, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// UnitBuckets are bounds for [0, 1]-valued observations (drift scores,
// accuracies, occupancy fractions): twenty 0.05-wide buckets plus overflow.
func UnitBuckets() []float64 { return LinearBuckets(0.05, 0.05, 20) }

// Sink is the metrics registry and trace collector. Obtain handles with
// Counter/Gauge/Histogram at instrumentation time; re-registering the same
// key returns the same handle, so a shared Sink aggregates across
// simulations. A nil *Sink is a valid no-op sink.
type Sink struct {
	mu         sync.Mutex
	counters   map[Key]*Counter
	gauges     map[Key]*Gauge
	histograms map[Key]*histEntry

	trace *traceBuf // nil until EnableTrace
}

type histEntry struct {
	h      *Histogram
	bounds []float64
}

// New returns an empty sink.
func New() *Sink {
	return &Sink{
		counters:   make(map[Key]*Counter),
		gauges:     make(map[Key]*Gauge),
		histograms: make(map[Key]*histEntry),
	}
}

// Counter registers (or retrieves) a counter. Returns nil on a nil sink.
func (s *Sink) Counter(component, instance, name string) *Counter {
	if s == nil {
		return nil
	}
	k := Key{component, instance, name}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[k]
	if !ok {
		c = &Counter{}
		s.counters[k] = c
	}
	return c
}

// Gauge registers (or retrieves) a gauge. Returns nil on a nil sink.
func (s *Sink) Gauge(component, instance, name string) *Gauge {
	if s == nil {
		return nil
	}
	k := Key{component, instance, name}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[k]
	if !ok {
		g = &Gauge{}
		s.gauges[k] = g
	}
	return g
}

// Histogram registers (or retrieves) a histogram with the given inclusive
// upper bounds. Returns nil on a nil sink. Bounds are fixed at first
// registration; later registrations of the same key reuse them.
func (s *Sink) Histogram(component, instance, name string, bounds []float64) *Histogram {
	if s == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic("obs: histogram needs bounds")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted")
	}
	k := Key{component, instance, name}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.histograms[k]
	if !ok {
		b := append([]float64(nil), bounds...)
		e = &histEntry{
			h:      &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)},
			bounds: b,
		}
		s.histograms[k] = e
	}
	return e.h
}

// CounterValue reports a counter-metric snapshot.
type CounterValue struct {
	Key   Key
	Value uint64
}

// GaugeValue reports a gauge-metric snapshot.
type GaugeValue struct {
	Key   Key
	Value float64
}

// HistogramValue reports a histogram snapshot. Counts[i] holds observations
// with value <= Bounds[i]; Counts[len(Bounds)] is the overflow bucket.
type HistogramValue struct {
	Key    Key
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Mean returns the average observed value (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// (component, instance, name) so output is deterministic.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies out all metric values. Returns an empty snapshot on nil.
func (s *Sink) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if s == nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, c := range s.counters {
		snap.Counters = append(snap.Counters, CounterValue{Key: k, Value: c.Value()})
	}
	for k, g := range s.gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Key: k, Value: g.Value()})
	}
	for k, e := range s.histograms {
		hv := HistogramValue{
			Key:    k,
			Bounds: e.bounds,
			Counts: make([]uint64, len(e.h.counts)),
			Count:  e.h.Count(),
			Sum:    e.h.Sum(),
		}
		for i := range e.h.counts {
			hv.Counts[i] = e.h.counts[i].Load()
		}
		snap.Histograms = append(snap.Histograms, hv)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return keyLess(snap.Counters[i].Key, snap.Counters[j].Key) })
	sort.Slice(snap.Gauges, func(i, j int) bool { return keyLess(snap.Gauges[i].Key, snap.Gauges[j].Key) })
	sort.Slice(snap.Histograms, func(i, j int) bool { return keyLess(snap.Histograms[i].Key, snap.Histograms[j].Key) })
	return snap
}

// Empty reports whether the snapshot holds no metrics at all.
func (s *Snapshot) Empty() bool {
	return s == nil || len(s.Counters)+len(s.Gauges)+len(s.Histograms) == 0
}

// Counter returns one counter's value by key.
func (s *Snapshot) Counter(component, instance, name string) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	k := Key{component, instance, name}
	for _, c := range s.Counters {
		if c.Key == k {
			return c.Value, true
		}
	}
	return 0, false
}

// CounterTotal sums a counter across all instances of a component.
func (s *Snapshot) CounterTotal(component, name string) uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for _, c := range s.Counters {
		if c.Key.Component == component && c.Key.Name == name {
			total += c.Value
		}
	}
	return total
}

// WriteJSON writes the snapshot as one indented JSON object with "counters"
// and "gauges" maps keyed by the metric's component/instance/name string and
// a "histograms" list carrying bounds, per-bucket counts (the final count is
// the overflow bucket), totals, and the mean. Output is deterministic: maps
// marshal key-sorted and histograms keep the snapshot's sorted order. This is
// the wire format of the serving layer's /v1/stats endpoint.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	type histJSON struct {
		Key    string    `json:"key"`
		Bounds []float64 `json:"bounds"`
		Counts []uint64  `json:"counts"`
		Count  uint64    `json:"count"`
		Sum    float64   `json:"sum"`
		Mean   float64   `json:"mean"`
	}
	out := struct {
		Counters   map[string]uint64  `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms []histJSON         `json:"histograms"`
	}{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: []histJSON{},
	}
	if s != nil {
		for _, c := range s.Counters {
			out.Counters[c.Key.String()] = c.Value
		}
		for _, g := range s.Gauges {
			out.Gauges[g.Key.String()] = g.Value
		}
		for _, h := range s.Histograms {
			out.Histograms = append(out.Histograms, histJSON{
				Key: h.Key.String(), Bounds: h.Bounds, Counts: h.Counts,
				Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Render formats the snapshot as an aligned table for terminal output.
func (s *Snapshot) Render() string {
	if s.Empty() {
		return "(no metrics)\n"
	}
	var b []byte
	line := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	if len(s.Counters) > 0 {
		line("%-44s %16s\n", "counter", "value")
		for _, c := range s.Counters {
			line("%-44s %16d\n", c.Key, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		line("%-44s %16s\n", "gauge", "value")
		for _, g := range s.Gauges {
			line("%-44s %16.3f\n", g.Key, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		line("%-44s %10s %14s %14s\n", "histogram", "count", "mean", "sum")
		for _, h := range s.Histograms {
			line("%-44s %10d %14.1f %14.0f\n", h.Key, h.Count, h.Mean(), h.Sum)
		}
	}
	return string(b)
}
