package experiments

import (
	"fmt"
	"strings"

	"quanterference/internal/core"
	"quanterference/internal/monitor/servermon"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// TableIIResult is the server-side metric catalogue (the paper's Table II)
// with live values from one sampled window of a busy run, demonstrating the
// collection path end to end.
type TableIIResult struct {
	// Names are the per-second series of §III-B.
	Names []string
	// Groups maps each series to its Table II section.
	Groups []string
	// Values[target][feature] is one finalized window's vector.
	Values [][]float64
	// TargetNames label the rows (ost0..ost5, mdt).
	TargetNames []string
	Window      int
}

// TableII runs a mixed workload and captures one window of every server-side
// metric from every target.
func TableII(scale Scale) *TableIIResult {
	if scale == 0 {
		scale = 1
	}
	p := io500.Params{Dir: "/t2", Ranks: 4,
		EasyFileBytes: scale.Bytes(32 << 20), MdtFiles: scale.Count(200)}
	res := mustRun(core.Scenario{
		Target: core.TargetSpec{
			Gen:   io500.New(io500.IorEasyWrite, p),
			Nodes: targetNodes,
			Ranks: 4,
		},
		Interference: IO500Instances(io500.MdtHardWrite, 1, 4, io500Params(scale), "/t2bg"),
		MaxTime:      60 * sim.Second,
	})
	// Pick the busiest finalized window (max total activity).
	best, bestSum := -1, -1.0
	for idx, vecs := range res.ServerWindows {
		sum := 0.0
		for _, v := range vecs {
			for _, x := range v {
				sum += x
			}
		}
		if sum > bestSum {
			best, bestSum = idx, sum
		}
	}
	out := &TableIIResult{
		Names:  servermon.FeatureNames(),
		Window: best,
	}
	groups := map[string]string{
		"srv_completed_ios":       "I/O speed",
		"srv_sectors_read":        "Device metrics",
		"srv_sectors_written":     "Device metrics",
		"srv_reads_merged":        "Read/Write queue",
		"srv_writes_merged":       "Read/Write queue",
		"srv_queued_reqs":         "Read/Write queue",
		"srv_queue_time":          "Read/Write queue",
		"srv_weighted_queue_time": "Read/Write queue",
	}
	for _, n := range out.Names {
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(n, "_sum"), "_mean"), "_std")
		out.Groups = append(out.Groups, groups[base])
	}
	for t := 0; t < res.NTargets; t++ {
		if t == res.NTargets-1 {
			out.TargetNames = append(out.TargetNames, "mdt")
		} else {
			out.TargetNames = append(out.TargetNames, fmt.Sprintf("ost%d", t))
		}
	}
	if best >= 0 {
		out.Values = res.ServerWindows[best]
	}
	return out
}

// Table lays out the catalogue with one value column per target.
func (r *TableIIResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table II server-side metrics (window %d)", r.Window),
		Columns: []Column{{Name: "section"}, {Name: "metric"}},
	}
	for _, name := range r.TargetNames {
		t.Columns = append(t.Columns, Column{name, "%.4f"})
	}
	for f, name := range r.Names {
		row := []any{r.Groups[f], name}
		for tg := range r.TargetNames {
			row = append(row, r.Values[tg][f])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
