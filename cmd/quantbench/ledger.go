package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// ledgerFile is the on-disk form of a ledger: every run appended to it, each
// tagged with the set it belongs to.
type ledgerFile struct {
	Runs []*runResult `json:"runs"`
}

// runSuite runs every workload reps times with seeds seed, seed+1, ... in
// this one process.
func runSuite(seed int64, reps, seconds int, traced bool, logf func(string, ...interface{})) ([]*runResult, error) {
	var runs []*runResult
	for _, name := range workloadNames {
		for r := 0; r < reps; r++ {
			res, err := runWorkload(name, seed+int64(r), seconds, traced, logf)
			if err != nil {
				return runs, err
			}
			for _, e := range res.Errors {
				logf("%s seed %d: check failed: %s", name, res.Seed, e)
			}
			runs = append(runs, res)
			runtime.GC()
		}
	}
	return runs, nil
}

// summary is the median and quartiles of one metric over a group of runs.
type summary struct {
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	bound  float64
}

// summarize groups runs by workload and summarizes every metric of the
// runs' table, plus the reference kernel that measures the machine.
func summarize(runs []*runResult) map[string]map[string]summary {
	out := map[string]map[string]summary{}
	for _, name := range workloadNames {
		var group []*runResult
		for _, r := range runs {
			if r.Workload == name {
				group = append(group, r)
			}
		}
		if len(group) == 0 {
			continue
		}
		tab := endToEnd
		if group[0].Trace == 1 {
			tab = perLayer
		}
		add := func(m metricDef, value func(*runResult) float64) {
			var vals []float64
			for _, r := range group {
				vals = append(vals, value(r))
			}
			q1, med, q3 := quartiles(vals)
			if out[name] == nil {
				out[name] = map[string]summary{}
			}
			out[name][m.Name] = summary{m.Unit, q1, med, q3, len(vals), m.Bound}
		}
		add(metricDef{Name: "ref.kernel_ns", Unit: "ns"}, func(r *runResult) float64 { return r.RefKernelNS })
		for _, m := range tab {
			m := m
			add(m, func(r *runResult) float64 { return r.Metrics[m.Name] })
		}
	}
	return out
}

// noiseReport prints, per workload and metric, the median and quartiles over
// the runs and the quartile spread as a share of the median next to the
// metric's bound, then the same summary as one line of JSON.
func noiseReport(w io.Writer, runs []*runResult) error {
	sum := summarize(runs)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tq1\tmedian\tq3\tspread\tbound\t")
	for _, name := range workloadNames {
		metrics := make([]string, 0, len(sum[name]))
		for m := range sum[name] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			s := sum[name][m]
			b := "-"
			if s.bound > 0 {
				b = fmt.Sprintf("%.0f%%", s.bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.1f%%\t%s\t\n",
				name, m, s.Unit, s.Q1, s.Median, s.Q3, 100*ratio(s.Q3-s.Q1, s.Median), b)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// appendLedger adds runs to the ledger at path, creating it if needed.
func appendLedger(path string, runs []*runResult) error {
	var l ledgerFile
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &l); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	l.Runs = append(l.Runs, runs...)
	out, err := json.MarshalIndent(&l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// loadLedger reads "file.json" or "file.json@N", keeping only set N's runs
// in the second form.
func loadLedger(spec string) ([]*runResult, error) {
	path, set := spec, 0
	if i := strings.LastIndexByte(spec, '@'); i >= 0 {
		n, err := strconv.Atoi(spec[i+1:])
		if err != nil {
			return nil, fmt.Errorf("ledger %q: bad set number", spec)
		}
		path, set = spec[:i], n
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledgerFile
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	var out []*runResult
	for _, r := range l.Runs {
		if set == 0 || r.Set == set {
			out = append(out, r)
		}
	}
	return out, nil
}

// verdict applies the acceptance rule to one workload and end-to-end
// metric. a holds the baseline runs and b the candidate's, paired by index.
//   - unresolved: either side's quartile spread exceeds the bound, unless
//     every run of b beats every run of a (then better);
//   - regressed: b's median is worse than a's by more than the bound;
//   - better: b wins at least nine in ten pairs and the medians differ by
//     more than a's quartile spread;
//   - no worse: otherwise.
func verdict(m metricDef, a, b []float64) string {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	if ratio(qa3-qa1, ma) > m.Bound || ratio(qb3-qb1, mb) > m.Bound {
		for _, y := range b {
			for _, x := range a {
				if !better(y, x) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	worse := ratio(mb-ma, ma)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed"
	}
	pairs, wins := len(a), 0
	if len(b) < pairs {
		pairs = len(b)
	}
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(mb, ma) && abs(mb-ma) > qa3-qa1 {
		return "better"
	}
	return "no worse"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareLedgers prints both sides' medians and quartiles and a verdict for
// every workload and end-to-end metric found in both ledgers. It prints no
// combined score.
func compareLedgers(w io.Writer, specA, specB string) error {
	ra, err := loadLedger(specA)
	if err != nil {
		return err
	}
	rb, err := loadLedger(specB)
	if err != nil {
		return err
	}
	values := func(runs []*runResult, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if r.Workload == workload && r.Trace == 0 {
				out = append(out, r.Metrics[metric])
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbound\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tverdict\n")
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			a, b := values(ra, name, m.Name), values(rb, name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa1, ma, qa3 := quartiles(a)
			qb1, mb, qb3 := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%s\n",
				name, m.Name, m.Unit, 100*m.Bound, ma, qa1, qa3, len(a), mb, qb1, qb3, len(b),
				100*ratio(mb-ma, ma), verdict(m, a, b))
		}
	}
	return tw.Flush()
}
