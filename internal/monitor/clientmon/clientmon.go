// Package clientmon is the client-side monitor of §III-A: it consumes the
// per-operation trace records emitted by the workload runner (the analogue
// of the modified Darshan in the paper) and aggregates them into per-time-
// window, per-storage-target metrics:
//
//   - the individual and combined counts of read, write, and metadata
//     operations in the window;
//   - the individual and combined bytes moved by reads and writes;
//   - the actual time spent doing I/O, plus derived throughput and IOPS.
package clientmon

import (
	"sort"

	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// TargetMetrics are one window's client-side metrics toward one target.
type TargetMetrics struct {
	Reads    float64
	Writes   float64
	MetaOps  float64
	TotalOps float64

	ReadBytes  float64
	WriteBytes float64
	TotalBytes float64

	IOTime     float64 // seconds of op latency attributed to this target
	Throughput float64 // bytes per second of window
	IOPS       float64 // ops per second of window
}

// NumFeatures is the length of a client feature vector.
const NumFeatures = 10

// FeatureNames labels the vector entries, in order.
func FeatureNames() []string {
	return []string{
		"cli_reads", "cli_writes", "cli_meta_ops", "cli_total_ops",
		"cli_read_bytes", "cli_write_bytes", "cli_total_bytes",
		"cli_io_time", "cli_throughput", "cli_iops",
	}
}

// Vector flattens the metrics in FeatureNames order.
func (t *TargetMetrics) Vector() []float64 {
	return []float64{
		t.Reads, t.Writes, t.MetaOps, t.TotalOps,
		t.ReadBytes, t.WriteBytes, t.TotalBytes,
		t.IOTime, t.Throughput, t.IOPS,
	}
}

// Monitor aggregates one workload's records.
type Monitor struct {
	nTargets   int
	windowSize sim.Time
	windows    map[int][]TargetMetrics
}

// New creates a monitor for a system with nTargets storage targets.
func New(nTargets int, windowSize sim.Time) *Monitor {
	if nTargets <= 0 || windowSize <= 0 {
		panic("clientmon: bad configuration")
	}
	return &Monitor{
		nTargets:   nTargets,
		windowSize: windowSize,
		windows:    make(map[int][]TargetMetrics),
	}
}

// WindowSize returns the aggregation period.
func (m *Monitor) WindowSize() sim.Time { return m.windowSize }

// WindowIndex maps a timestamp to its window.
func (m *Monitor) WindowIndex(t sim.Time) int { return int(t / m.windowSize) }

// Record ingests one trace record; wire it to workload.Runner.OnRecord.
// An operation is attributed to the window containing its start time; ops
// touching k targets split their bytes evenly but count fully toward each.
func (m *Monitor) Record(rec workload.Record) {
	if !rec.Op.Kind.IsIO() || len(rec.Targets) == 0 {
		return
	}
	idx := m.WindowIndex(rec.Start)
	w, ok := m.windows[idx]
	if !ok {
		w = make([]TargetMetrics, m.nTargets)
		m.windows[idx] = w
	}
	k := float64(len(rec.Targets))
	dur := sim.ToSeconds(rec.Duration())
	bytes := float64(rec.Op.Size) / k
	for _, target := range rec.Targets {
		tm := &w[target]
		tm.TotalOps++
		tm.IOTime += dur
		switch rec.Op.Kind {
		case workload.Read:
			tm.Reads++
			tm.ReadBytes += bytes
			tm.TotalBytes += bytes
		case workload.Write:
			tm.Writes++
			tm.WriteBytes += bytes
			tm.TotalBytes += bytes
		default:
			tm.MetaOps++
		}
	}
}

// Window returns the finalized metrics (with derived rates) for a window,
// or ok=false if no I/O was recorded in it.
func (m *Monitor) Window(idx int) ([]TargetMetrics, bool) {
	w, ok := m.windows[idx]
	if !ok {
		return nil, false
	}
	out := make([]TargetMetrics, len(w))
	secs := sim.ToSeconds(m.windowSize)
	for i, tm := range w {
		tm.Throughput = tm.TotalBytes / secs
		tm.IOPS = tm.TotalOps / secs
		out[i] = tm
	}
	return out, true
}

// Windows lists the indices with recorded I/O, ascending.
func (m *Monitor) Windows() []int {
	out := make([]int, 0, len(m.windows))
	for idx := range m.windows {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}
