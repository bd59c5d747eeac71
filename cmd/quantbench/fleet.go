package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/fleet"
	"quanterference/internal/forecast"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/serve"
	"quanterference/internal/shadow"
)

const (
	fleetReplicas   = 3
	fleetSenders    = 2
	challengerCount = 2
	// Request mix: predict below predictShare, forecast below
	// forecastShare, a delayed shadow label otherwise.
	predictShare  = 0.80
	forecastShare = 0.95
	// labelLag is how many answered predictions back a label refers to.
	labelLag = 8
	// saturationDraw is the arrival rate the saturation phase draws its
	// request mix at, far above what two senders complete.
	saturationDraw = 5000
	// challengerEpochs trains the challengers shorter than the champion.
	challengerEpochs = 5
)

// fixedRates are the open-loop rates the latency metrics are taken at: light
// load, where the senders are busy a quarter of the time or less. At
// 300 rps and above, queueing amplifies the machine's speed drift into a 10%
// run-to-run spread of the tail (README.md, "Noise").
var fixedRates = []float64{50, 100, 150}

const (
	reqPredict = iota
	reqForecast
	reqLabel
)

// fleetRequest is one scheduled request.
type fleetRequest struct {
	kind    int
	payload int // matrix index (predict, label) or history index (forecast)
	key     string
}

type fleetReplica struct {
	srv *serve.Server
	ts  *httptest.Server
}

// fleetWorkload is open-loop traffic from fleetSenders goroutines through a
// fleet.Coordinator to fleetReplicas replicas that share one shadow
// evaluator scoring challengerCount challengers.
type fleetWorkload struct {
	seed     int64
	fix      *servingFixture
	fc       *forecast.Forecaster // in-process reference
	fcDigest string
	hists    [][]window.Matrix
	fcRefs   []*forecast.Prediction
	ev       *shadow.Evaluator
	evSink   *obs.Sink
	reps     []*fleetReplica
	coord    *fleet.Coordinator
	phases   int

	mu sync.Mutex
	// answered holds the payloads of the last labelLag answered predictions
	// as a ring; a label request labels the oldest of them.
	answered   [labelLag]int
	nAnswered  int
	labelsSent int
}

// syntheticForecaster builds a seeded forecaster over the fixture's window
// shape: one untrained kernel head per horizon, standardized with the pooled
// statistics of the payload windows.
func syntheticForecaster(seed int64, mats []window.Matrix) *forecast.Forecaster {
	const history = 4
	nFeat := len(mats[0][0])
	scaler := &dataset.Scaler{Mean: make([]float64, 2*nFeat), Std: make([]float64, 2*nFeat)}
	for _, m := range mats {
		for j, v := range forecast.Pool(m) {
			scaler.Mean[j] += v / float64(len(mats))
		}
	}
	for _, m := range mats {
		for j, v := range forecast.Pool(m) {
			d := v - scaler.Mean[j]
			scaler.Std[j] += d * d / float64(len(mats))
		}
	}
	for j := range scaler.Std {
		scaler.Std[j] = math.Sqrt(scaler.Std[j])
		if scaler.Std[j] < 1e-12 {
			scaler.Std[j] = 1
		}
	}
	fc := &forecast.Forecaster{History: history, Threshold: 1, Bins: label.BinaryBins()}
	for _, k := range []int{1, 2, 4} {
		fc.Heads = append(fc.Heads, &forecast.Head{
			Horizon: k,
			Model: ml.NewKernelModel(ml.KernelConfig{
				NTargets: history, NFeat: 2 * nFeat, Classes: 2, Seed: seed + int64(k),
			}),
			Scaler: scaler,
		})
	}
	return fc
}

// histories returns every run of fc.History consecutive payload windows
// of one collection run.
func histories(fix *servingFixture, n int) [][]window.Matrix {
	var out [][]window.Matrix
	for i := 0; i+n <= len(fix.mats); i++ {
		if fix.runs[i] == fix.runs[i+n-1] {
			out = append(out, fix.mats[i:i+n])
		}
	}
	return out
}

func (w *fleetWorkload) setup(seed int64) error {
	w.close()
	fix, err := newServingFixture(seed)
	if err != nil {
		return err
	}
	w.seed, w.fix, w.phases = seed, fix, 0
	w.nAnswered, w.labelsSent = 0, 0
	w.fc = syntheticForecaster(seed, fix.mats)
	w.fcDigest = ml.WeightsDigest(w.fc.ExportWeights())
	w.hists = histories(fix, w.fc.History)
	w.fcRefs = nil
	for _, h := range w.hists {
		p, err := w.fc.Predict(h)
		if err != nil {
			return err
		}
		w.fcRefs = append(w.fcRefs, p)
	}

	champ, err := fix.fw.Clone()
	if err != nil {
		return err
	}
	w.evSink = obs.New()
	w.ev, err = shadow.New(champ, shadow.Config{Seed: seed, Sink: w.evSink})
	if err != nil {
		return err
	}
	for c := 1; c <= challengerCount; c++ {
		fw, _, err := core.TrainFrameworkE(fix.ds, core.FrameworkConfig{
			Bins: label.BinaryBins(), Seed: seed + int64(c),
			Train: ml.TrainConfig{Epochs: challengerEpochs, Seed: seed + int64(c)},
		})
		if err != nil {
			return err
		}
		if err := w.ev.AddChallenger(fmt.Sprintf("challenger%d", c), fw); err != nil {
			return err
		}
	}

	var replicas []*fleet.Replica
	for r := 0; r < fleetReplicas; r++ {
		fw, err := fix.fw.Clone()
		if err != nil {
			return err
		}
		fc, err := w.fc.Clone()
		if err != nil {
			return err
		}
		rep := &fleetReplica{srv: serve.New(fw, serve.Config{Forecaster: fc, Shadow: w.ev, Sink: obs.New()})}
		rep.ts = httptest.NewServer(rep.srv.Handler())
		w.reps = append(w.reps, rep)
		name := fmt.Sprintf("r%d", r)
		replicas = append(replicas, fleet.NewReplica(name, rep.srv, serve.NewClient(rep.ts.URL), nil))
	}
	w.coord, err = fleet.New(fleet.Config{Seed: seed}, replicas...)
	if err != nil {
		return err
	}
	// Open every sender's keep-alive connections before timing.
	res := w.run(0, fixedRates[0], 200*time.Millisecond, time.Second)
	if _, failed := res.count(); failed > 0 {
		return fmt.Errorf("warm-up: %d requests failed", failed)
	}
	return nil
}

// schedule draws one phase's requests: Poisson arrivals at rate, each with
// a kind, a payload and a routing key, all from the seed and phase number.
func (w *fleetWorkload) schedule(phase int, rate float64, d time.Duration) ([]time.Duration, []fleetRequest) {
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(w.seed)<<16 ^ uint64(phase)))))
	due := poissonSchedule(rate, d, rng.Float64)
	reqs := make([]fleetRequest, len(due))
	for i := range reqs {
		r := &reqs[i]
		switch u := rng.Float64(); {
		case u < predictShare:
			r.kind, r.payload = reqPredict, rng.Intn(len(w.fix.mats))
		case u < forecastShare:
			r.kind, r.payload = reqForecast, rng.Intn(len(w.hists))
		default:
			r.kind = reqLabel
		}
		r.key = fmt.Sprintf("job%d", rng.Intn(64))
	}
	return due, reqs
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	rate float64
	reqs []fleetRequest
	*loadResult
}

// served returns the latencies of the phase's HTTP requests, in ms from due.
func (p *phaseResult) served() []float64 {
	var out []float64
	for i, r := range p.reqs {
		if p.sent[i] && p.errs[i] == nil && r.kind != reqLabel {
			out = append(out, p.lat[i])
		}
	}
	return out
}

// run drives one open-loop phase at rate for d; requests not sent by cutoff
// are left unsent.
func (w *fleetWorkload) run(phase int, rate float64, d, cutoff time.Duration) *phaseResult {
	due, reqs := w.schedule(phase, rate, d)
	res := openLoop(fleetSenders, due, cutoff, func(i int) error {
		return w.do(reqs[i])
	})
	return &phaseResult{rate: rate, reqs: reqs, loadResult: res}
}

// saturate sends the request mix back to back from every sender for d,
// which is the highest rate the senders sustain without a backlog.
// Requests still unsent at d are dropped from the phase.
func (w *fleetWorkload) saturate(phase int, d time.Duration) *phaseResult {
	_, reqs := w.schedule(phase, saturationDraw, d)
	res := openLoop(fleetSenders, make([]time.Duration, len(reqs)), d, func(i int) error {
		return w.do(reqs[i])
	})
	var p phaseResult
	p.loadResult = newLoadResult(0)
	p.elapsed = res.elapsed
	for i, r := range reqs {
		if res.sent[i] {
			p.reqs = append(p.reqs, r)
			p.lat = append(p.lat, res.lat[i])
			p.late = append(p.late, res.late[i])
			p.errs = append(p.errs, res.errs[i])
			p.sent = append(p.sent, true)
		}
	}
	return &p
}

// do sends one request and checks its reply against the references.
func (w *fleetWorkload) do(r fleetRequest) error {
	ctx := context.Background()
	switch r.kind {
	case reqPredict:
		resp, err := w.coord.Predict(ctx, r.key, w.fix.mats[r.payload])
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.answered[w.nAnswered%labelLag] = r.payload
		w.nAnswered++
		w.mu.Unlock()
		return w.fix.checkPredict(r.payload, resp)
	case reqForecast:
		resp, err := w.coord.Forecast(ctx, r.key, w.hists[r.payload])
		if err != nil {
			return err
		}
		ref := w.fcRefs[r.payload]
		if !reflect.DeepEqual(resp.Classes, ref.Classes) || !reflect.DeepEqual(resp.Probs, ref.Probs) ||
			resp.LeadWindows != ref.LeadWindows || resp.ModelDigest != w.fcDigest {
			return fmt.Errorf("forecast %d: got %v %v lead %d from %s, want %v %v lead %d from %s",
				r.payload, resp.Classes, resp.Probs, resp.LeadWindows, resp.ModelDigest,
				ref.Classes, ref.Probs, ref.LeadWindows, w.fcDigest)
		}
		return nil
	default:
		w.mu.Lock()
		if w.nAnswered < labelLag {
			w.mu.Unlock()
			return nil
		}
		p := w.answered[w.nAnswered%labelLag]
		w.labelsSent++
		w.mu.Unlock()
		w.ev.Label(w.fix.mats[p], w.fix.degs[p])
		return nil
	}
}

func (w *fleetWorkload) measure(budget time.Duration, traced bool) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	fixedDur := time.Duration(float64(budget) * 0.26)
	satDur := time.Duration(float64(budget) * 0.2)
	before := w.stats()
	evBefore := w.evSink.Snapshot()
	timelineBefore := len(w.coord.Timeline())
	start := time.Now()

	record := func(p *phaseResult) {
		for i, r := range p.reqs {
			ph.attempted++
			switch {
			case !p.sent[i]:
				ph.fail(fmt.Errorf("%.0f rps: request %d never sent, the backlog outgrew the phase", p.rate, i))
			case p.errs[i] != nil:
				ph.fail(fmt.Errorf("%.0f rps: %v", p.rate, p.errs[i]))
			case r.kind != reqLabel:
				ph.ops++
			}
		}
	}

	var fixed []*phaseResult
	for _, rate := range fixedRates {
		w.phases++
		// A fixed-rate phase sends everything unless the generator falls a
		// whole phase behind: its latency shows the backlog instead.
		p := w.run(w.phases, rate, fixedDur, 2*fixedDur)
		record(p)
		fixed = append(fixed, p)
		ph.lat = append(ph.lat, p.served()...)
	}
	w.phases++
	sat := w.saturate(w.phases, satDur)
	record(sat)
	ph.throughput = ratio(float64(len(sat.reqs)), sat.elapsed.Seconds())
	ph.elapsed = time.Since(start)

	if dropped := w.coord.Dropped(); dropped != 0 {
		ph.check(fmt.Errorf("coordinator dropped %d requests", dropped))
	}
	w.ev.Sync()
	st := w.ev.Status()
	w.mu.Lock()
	sent := w.labelsSent
	w.mu.Unlock()
	if int(st.Labeled+st.Unmatched) != sent {
		ph.check(fmt.Errorf("shadow scored %d labels and missed %d, but %d were sent", st.Labeled, st.Unmatched, sent))
	}
	if !traced {
		return ph, nil
	}

	l := ph.layers
	n := float64(ph.ops)
	serveLayers(l, deltaStats(before, w.stats()), n)
	// Service times exclude the generator's lateness; the serve histograms
	// mix predictions and forecasts, so the HTTP overhead is taken over both.
	var fcLat, service, late []float64
	for _, p := range fixed {
		l[fleetRateMetric(p.rate)] = percentile(p.served(), 0.99)
		for i, r := range p.reqs {
			if !p.sent[i] || r.kind == reqLabel {
				continue
			}
			late = append(late, p.late[i])
			service = append(service, 1e3*(p.lat[i]-p.late[i]))
			if r.kind == reqForecast {
				fcLat = append(fcLat, 1e3*(p.lat[i]-p.late[i]))
			}
		}
	}
	l["gen.late_p99_ms"] = percentile(late, 0.99)
	l["gen.sent"] = float64(ph.attempted)
	l["forecast.latency_us"] = mean(fcLat)
	l["http.overhead_us"] = mean(service) - l["serve.total_us"]
	timeline := w.coord.Timeline()[timelineBefore:]
	retries := 0
	for _, line := range timeline {
		if strings.HasPrefix(line, "retry ") {
			retries++
		}
	}
	l["fleet.retries"] = ratio(float64(retries), n)
	l["fleet.dropped"] = float64(w.coord.Dropped())
	l["fleet.timeline_lines"] = ratio(float64(len(timeline)), n)
	ev := deltaStats(evBefore, w.evSink.Snapshot())
	mirrored, drops := ev.counters["shadow/mirrored"], ev.counters["shadow/mirror_drops"]
	l["shadow.mirrored"] = ratio(mirrored, n)
	l["shadow.drop_frac"] = ratio(drops, mirrored+drops)
	l["shadow.labeled"] = ev.counters["shadow/labeled"]
	l["shadow.unmatched"] = ev.counters["shadow/labels_unmatched"]
	return ph, nil
}

// fleetRateMetric names the per-layer p99 of one fixed-rate phase.
func fleetRateMetric(rate float64) string { return fmt.Sprintf("gen.p99_ms.r%.0f", rate) }

// stats merges every replica's serving sink.
func (w *fleetWorkload) stats() *obs.Snapshot {
	out := &obs.Snapshot{}
	for _, r := range w.reps {
		s := r.srv.Stats()
		out.Counters = append(out.Counters, s.Counters...)
		out.Histograms = append(out.Histograms, s.Histograms...)
	}
	return out
}

func (w *fleetWorkload) close() {
	for _, r := range w.reps {
		r.ts.Close()
		r.srv.Shutdown(context.Background())
	}
	w.reps = nil
}
