package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json records it. Bound is set only
// for end-to-end metrics: the share of the baseline median by which the
// median may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics an untraced run prints. Every workload reports
// every one of them, each for its own unit of work: one Figure 3(a) study,
// one online.Loop replay, or one HTTP request (see README.md). The tail is
// the 90th percentile because on a shared two-core machine the 99th moves
// with the neighbours' load (README.md, "Noise"); traced runs report the
// 99th as latency.p99_ms. The bounds fit the serving workloads, whose
// spreads stay under a third of them; setup_s gets the largest, shared with
// the tail.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.20},
	{"heap_p90_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics a traced run prints. A workload that does not
// enter a layer reports 0 for it. Counts are per unit of work unless the
// name says otherwise; *.self_frac is the share of CPU profile samples
// attributed to that layer (see bucketOf).
var perLayer = []metricDef{
	// core: the study's timed calls.
	{"collect.s", "s", "lower", 0},
	{"train.s", "s", "lower", 0},
	{"eval.s", "s", "lower", 0},
	{"collect.cpu_util", "frac", "higher", 0},
	{"core.self_frac", "frac", "lower", 0},
	{"core.predict_frac", "frac", "lower", 0},
	{"dataset.self_frac", "frac", "lower", 0},
	// Simulator layers.
	{"engine.events", "count", "lower", 0},
	{"engine.ns_per_event", "ns", "lower", 0},
	{"engine.self_frac", "frac", "lower", 0},
	{"rng.self_frac", "frac", "lower", 0},
	{"netsim.flows", "count", "lower", 0},
	{"netsim.recomputes_per_flow", "count", "lower", 0},
	{"netsim.self_frac", "frac", "lower", 0},
	{"lustre.ra_hit_frac", "frac", "higher", 0},
	{"lustre.ost_throttled_frac", "frac", "lower", 0},
	{"lustre.mds_hit_frac", "frac", "higher", 0},
	{"lustre.self_frac", "frac", "lower", 0},
	{"blockqueue.merge_frac", "frac", "higher", 0},
	{"blockqueue.self_frac", "frac", "lower", 0},
	{"disk.requests", "count", "lower", 0},
	{"disk.seq_frac", "frac", "higher", 0},
	{"disk.self_frac", "frac", "lower", 0},
	{"workload.self_frac", "frac", "lower", 0},
	{"monitor.self_frac", "frac", "lower", 0},
	{"label.self_frac", "frac", "lower", 0},
	// Go runtime.
	{"alloc.mb", "MB", "lower", 0},
	{"alloc.objects", "count", "lower", 0},
	{"gc.self_frac", "frac", "lower", 0},
	{"runtime.self_frac", "frac", "lower", 0},
	// Training kernels.
	{"nn.self_frac", "frac", "lower", 0},
	{"ml.self_frac", "frac", "lower", 0},
	{"train.sample_epochs_per_s", "1/s", "higher", 0},
	// Continuous learning.
	{"online.retrains", "count", "lower", 0},
	{"online.promotions", "count", "higher", 0},
	{"online.retrain_ms", "ms", "lower", 0},
	{"online.self_frac", "frac", "lower", 0},
	// Serving.
	{"serve.queue_wait_us", "us", "lower", 0},
	{"serve.model_us", "us", "lower", 0},
	{"serve.total_us", "us", "lower", 0},
	{"serve.batch_size_mean", "count", "higher", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"serve.self_frac", "frac", "lower", 0},
	{"http.overhead_us", "us", "lower", 0},
	{"json.encode_us", "us", "lower", 0},
	{"json.decode_us", "us", "lower", 0},
	{"http.self_frac", "frac", "lower", 0},
	{"forecast.latency_us", "us", "lower", 0},
	{"forecast.self_frac", "frac", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.dropped", "count", "lower", 0},
	{"fleet.timeline_lines", "count", "lower", 0},
	{"fleet.self_frac", "frac", "lower", 0},
	{"shadow.mirrored", "count", "higher", 0},
	{"shadow.drop_frac", "frac", "lower", 0},
	{"shadow.labeled", "count", "higher", 0},
	{"shadow.unmatched", "count", "lower", 0},
	{"shadow.self_frac", "frac", "lower", 0},
	// Load generator, harness and machine.
	{"latency.p99_ms", "ms", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.sent", "count", "higher", 0},
	{"gen.p99_ms.r50", "ms", "lower", 0},
	{"gen.p99_ms.r100", "ms", "lower", 0},
	{"gen.p99_ms.r150", "ms", "lower", 0},
	{"bench.self_frac", "frac", "lower", 0},
	{"obs.self_frac", "frac", "lower", 0},
	{"other.self_frac", "frac", "lower", 0},
	{"profile.samples", "count", "higher", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"ref.kernel_ns", "ns", "lower", 0},
}

// metricByName finds a metric definition in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) and statistics.median compute
// them, so a noise report reads exactly like the acceptance check.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 — a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
