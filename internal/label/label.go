// Package label implements the ground-truth labelling of §III-D: operations
// from an interference run are matched with the same operations in a
// baseline (interference-free) run of the same workload, and each time
// window's degradation level is the mean of the per-operation I/O-time
// ratios:
//
//	Level_degrade = Avg_{i in IORequests} iotime_interference(i) / iotime_base(i)
//
// Degradation levels are then discretized into the paper's bins: >=2x for
// the binary model, and {<2, 2-5, >=5} ("mild", "moderate", "severe",
// after Lu et al.) for the multi-class model.
package label

import (
	"fmt"
	"sort"

	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// Key identifies one operation across runs of the same workload.
type Key struct {
	Rank int
	Iter int
	Seq  int
}

// KeyOf extracts the matching key from a record.
func KeyOf(rec workload.Record) Key {
	return Key{Rank: rec.Rank, Iter: rec.Iter, Seq: rec.Seq}
}

// Labeler matches interference-run operations against a baseline run.
type Labeler struct {
	base       map[Key]sim.Time
	windowSize sim.Time
	minOps     int
}

// New builds a labeler from the baseline run's records. minOps is the
// minimum number of matched operations a window needs to receive a label
// (sparser windows are discarded as too noisy).
func New(baseline []workload.Record, windowSize sim.Time, minOps int) *Labeler {
	if windowSize <= 0 {
		panic("label: non-positive window")
	}
	if minOps < 1 {
		minOps = 1
	}
	base := make(map[Key]sim.Time, len(baseline))
	for _, rec := range baseline {
		if !rec.Op.Kind.IsIO() {
			continue
		}
		base[KeyOf(rec)] = rec.Duration()
	}
	return &Labeler{base: base, windowSize: windowSize, minOps: minOps}
}

// Matched reports how many of the given records have a baseline counterpart.
func (l *Labeler) Matched(recs []workload.Record) int {
	n := 0
	for _, rec := range recs {
		if _, ok := l.base[KeyOf(rec)]; ok {
			n++
		}
	}
	return n
}

// Degradations returns, per window index (by op start time), the mean
// iotime ratio of the window's matched operations. Windows with fewer than
// minOps matched ops are omitted.
func (l *Labeler) Degradations(interf []workload.Record) map[int]float64 {
	type acc struct {
		sum float64
		n   int
	}
	accs := make(map[int]*acc)
	for _, rec := range interf {
		if !rec.Op.Kind.IsIO() {
			continue
		}
		baseDur, ok := l.base[KeyOf(rec)]
		if !ok || baseDur <= 0 {
			continue
		}
		idx := int(rec.Start / l.windowSize)
		a, ok := accs[idx]
		if !ok {
			a = &acc{}
			accs[idx] = a
		}
		a.sum += float64(rec.Duration()) / float64(baseDur)
		a.n++
	}
	out := make(map[int]float64, len(accs))
	for idx, a := range accs {
		if a.n >= l.minOps {
			out[idx] = a.sum / float64(a.n)
		}
	}
	return out
}

// Bins discretizes degradation levels into class labels.
type Bins struct {
	// Thresholds are ascending bin edges; a degradation d gets the label
	// equal to the number of thresholds <= d.
	Thresholds []float64
}

// BinaryBins is the paper's binary setting: class 1 iff slowdown >= 2x.
func BinaryBins() Bins { return Bins{Thresholds: []float64{2}} }

// SeverityBins is the paper's 3-class setting: <2 (mild), 2-5 (moderate),
// >=5 (severe).
func SeverityBins() Bins { return Bins{Thresholds: []float64{2, 5}} }

// Classes returns the number of classes.
func (b Bins) Classes() int { return len(b.Thresholds) + 1 }

// Label maps a degradation level to its class.
func (b Bins) Label(d float64) int {
	return sort.SearchFloat64s(b.Thresholds, d+1e-12)
}

// Name renders a class for reports, e.g. "<2x", "2-5x", ">=5x".
func (b Bins) Name(class int) string {
	switch {
	case class == 0:
		return fmt.Sprintf("<%gx", b.Thresholds[0])
	case class == len(b.Thresholds):
		return fmt.Sprintf(">=%gx", b.Thresholds[len(b.Thresholds)-1])
	default:
		return fmt.Sprintf("%g-%gx", b.Thresholds[class-1], b.Thresholds[class])
	}
}

// Names renders every class in order, the row and column labels of a
// confusion matrix.
func (b Bins) Names() []string {
	names := make([]string, b.Classes())
	for c := range names {
		names[c] = b.Name(c)
	}
	return names
}
