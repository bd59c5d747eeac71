package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// profileHz is the CPU profile sampling rate of traced runs.
const profileHz = 1000

// workload is one benchmark journey. setup builds every input from the seed
// (replacing whatever an earlier setup built); measure runs the timed part
// for about budget and checks every output; traced asks measure to also
// fill the phase's per-layer values from the layers' own counters.
type workload interface {
	setup(seed int64) error
	measure(budget time.Duration, traced bool) (*phase, error)
	close()
}

var workloadNames = []string{"study-io500", "online-retrain", "serve-closed", "fleet-open"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "study-io500":
		return &studyWorkload{}, nil
	case "online-retrain":
		return &retrainWorkload{}, nil
	case "serve-closed":
		return &serveWorkload{}, nil
	case "fleet-open":
		return &fleetWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// phase is what one measure call observed.
type phase struct {
	lat        []float64 // ms, one per operation that counts toward latency
	ops        int       // completed operations
	elapsed    time.Duration
	throughput float64 // set by the open-loop workload; otherwise ops/elapsed
	attempted  int
	failed     int
	layers     map[string]float64
	errs       []error
}

// fail records an operation that failed or whose output was wrong.
func (p *phase) fail(err error) {
	p.failed++
	p.check(err)
}

// check records a failed output check that is not tied to one operation.
func (p *phase) check(err error) {
	if err != nil && len(p.errs) < 8 {
		p.errs = append(p.errs, err)
	}
}

func (p *phase) rate() float64 {
	if p.throughput > 0 {
		return p.throughput
	}
	return ratio(float64(p.ops), p.elapsed.Seconds())
}

// runResult is one benchmark run as its result line and the ledger record it.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Seconds     int                `json:"seconds"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	RefKernelNS float64            `json:"ref_kernel_ns"`
	Metrics     map[string]float64 `json:"metrics"`
	Errors      []string           `json:"errors,omitempty"`
	Set         int                `json:"set,omitempty"`
}

// runWorkload sets a workload up setupReps times, measures it for seconds,
// and returns the end-to-end metrics, or with traced the per-layer ones. A
// traced run spends half its time untraced, so the tracing overhead can be
// stated; its end-to-end numbers are never reported.
func runWorkload(name string, seed int64, seconds int, traced bool, logf func(string, ...interface{})) (*runResult, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		logf("%s setup %d: %.3fs", name, i+1, setups[i])
	}
	refs := refKernels()
	budget := time.Duration(seconds) * time.Second
	res := &runResult{Workload: name, Seed: seed, Seconds: seconds, Metrics: map[string]float64{}}
	var ph *phase
	if !traced {
		runtime.GC()
		hs := startHeapSampler()
		ph, err = w.measure(budget, false)
		heap := hs.stop()
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["latency_p50_ms"] = percentile(ph.lat, 0.5)
		res.Metrics["latency_p90_ms"] = percentile(ph.lat, 0.9)
		res.Metrics["throughput_per_s"] = ph.rate()
		res.Metrics["heap_p90_mb"] = heap / 1e6
	} else {
		res.Trace = 1
		base, err := w.measure(budget/2, false)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = 0
		}
		runtime.GC()
		a0 := readAllocs()
		var prof bytes.Buffer
		// Sample faster than pprof's 100 Hz default so the mostly idle
		// serving workloads still give hundreds of samples. Setting the
		// rate first makes StartCPUProfile's own attempt fail harmlessly;
		// the runtime prints a warning about it.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		ph, err = w.measure(budget/2, true)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		a1 := readAllocs()
		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		shares, predictFrac, total := profileBuckets(samples)
		for b, s := range shares {
			res.Metrics[b+".self_frac"] = s
		}
		for k, v := range ph.layers {
			res.Metrics[k] = v
		}
		res.Metrics["core.predict_frac"] = predictFrac
		res.Metrics["latency.p99_ms"] = percentile(ph.lat, 0.99)
		res.Metrics["profile.samples"] = float64(total)
		res.Metrics["alloc.mb"] = ratio(float64(a1.bytes-a0.bytes)/1e6, float64(ph.ops))
		res.Metrics["alloc.objects"] = ratio(float64(a1.objects-a0.objects), float64(ph.ops))
		res.Metrics["trace.overhead_frac"] = ratio(median(ph.lat), median(base.lat)) - 1
		ph.attempted += base.attempted
		ph.failed += base.failed
		ph.errs = append(base.errs, ph.errs...)
	}
	for k := range res.Metrics {
		if _, ok := metricByName(k); !ok {
			return nil, fmt.Errorf("metric %q is missing from the metric tables", k)
		}
	}
	refs = append(refs, refKernels()...)
	res.RefKernelNS = median(refs)
	if traced {
		res.Metrics["ref.kernel_ns"] = res.RefKernelNS
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	for _, e := range ph.errs {
		res.Errors = append(res.Errors, e.Error())
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0 && res.Attempted > 0
	return res, nil
}

// heapSampler samples the heap's object bytes, live and not yet swept,
// every 50 ms. Its 90th percentile reads the level the heap holds, where the
// maximum would read one garbage-collection sawtooth peak and move with the
// collector's timing.
type heapSampler struct {
	quit chan struct{}
	p90  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), p90: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var samples []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			samples = append(samples, float64(s[0].Value.Uint64()))
			select {
			case <-tick.C:
			case <-h.quit:
				h.p90 <- percentile(samples, 0.9)
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the 90th percentile in bytes.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.p90
}

type allocs struct{ bytes, objects uint64 }

func readAllocs() allocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return allocs{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var refSink uint64

// refKernels times a fixed single-thread integer loop five times. Its
// duration depends only on the machine, so a drift in it between runs is
// machine noise, not a change in the code under test.
func refKernels() []float64 {
	out := make([]float64, 5)
	for r := range out {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 1<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink += x
		out[r] = float64(time.Since(start).Nanoseconds())
	}
	return out
}
