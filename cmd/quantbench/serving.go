package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/serve"
)

const (
	// payloadScale sizes the IO500 collection whose real 7x34 window
	// matrices are the serving workloads' request payloads.
	payloadScale  = 0.3
	servedEpochs  = 20
	closedClients = 2
)

// servingFixture is what both serving workloads share: request payloads, a
// trained champion, and the champion's answer to every payload, computed
// in-process with PredictBatch.
type servingFixture struct {
	ds      *dataset.Dataset
	mats    []window.Matrix
	degs    []float64
	runs    []string // "workload/run" of each payload, in window order
	fw      *core.Framework
	digest  string
	classes []int
	probs   [][]float64
}

func newServingFixture(seed int64) (*servingFixture, error) {
	col := &studyResult{}
	if err := collectIO500(payloadScale, col); err != nil {
		return nil, err
	}
	fw, _, err := core.TrainFrameworkE(col.ds, core.FrameworkConfig{
		Bins: label.BinaryBins(), Seed: seed,
		Train: ml.TrainConfig{Epochs: servedEpochs, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	f := &servingFixture{ds: col.ds, fw: fw, digest: ml.WeightsDigest(fw.ExportWeights())}
	for _, s := range col.ds.Samples {
		f.mats = append(f.mats, s.Vectors)
		f.degs = append(f.degs, s.Degradation)
		f.runs = append(f.runs, s.Workload+"/"+s.Run)
	}
	cls, probs := fw.PredictBatch(f.mats)
	f.classes = append([]int(nil), cls...)
	for _, p := range probs {
		f.probs = append(f.probs, append([]float64(nil), p...))
	}
	return f, nil
}

// checkPredict compares a served reply with the in-process reference: the
// same class, probabilities and model digest. JSON carries float64s exactly.
func (f *servingFixture) checkPredict(i int, resp *serve.PredictResponse) error {
	if resp.Class != f.classes[i] || resp.ModelDigest != f.digest || !reflect.DeepEqual(resp.Probs, f.probs[i]) {
		return fmt.Errorf("payload %d: class %d %v from model %s, want %d %v from %s",
			i, resp.Class, resp.Probs, resp.ModelDigest, f.classes[i], f.probs[i], f.digest)
	}
	return nil
}

// serveWorkload is a latency-bound caller: closedClients clients, each
// sending its next /v1/predict only after the last reply, to one server
// over loopback HTTP with no shadow tap.
type serveWorkload struct {
	seed   int64
	fix    *servingFixture
	srv    *serve.Server
	ts     *httptest.Server
	client *serve.Client
}

func (w *serveWorkload) setup(seed int64) error {
	w.close()
	fix, err := newServingFixture(seed)
	if err != nil {
		return err
	}
	fw, err := fix.fw.Clone()
	if err != nil {
		return err
	}
	w.seed, w.fix = seed, fix
	w.srv = serve.New(fw, serve.Config{Sink: obs.New()})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = serve.NewClient(w.ts.URL)
	// Open both clients' keep-alive connections before timing.
	res := closedLoop(closedClients, 200*time.Millisecond, w.request)
	if _, failed := res.count(); failed > 0 {
		return fmt.Errorf("warm-up: %d requests failed", failed)
	}
	return nil
}

// payload picks client c's seq-th payload from the seed.
func (w *serveWorkload) payload(c, seq int) int {
	return int(splitmix(uint64(w.seed)<<20^uint64(c)<<40^uint64(seq)) % uint64(len(w.fix.mats)))
}

func (w *serveWorkload) request(c, seq int) error {
	i := w.payload(c, seq)
	resp, err := w.client.Predict(context.Background(), w.fix.mats[i])
	if err != nil {
		return err
	}
	return w.fix.checkPredict(i, resp)
}

func (w *serveWorkload) measure(budget time.Duration, traced bool) (*phase, error) {
	before := w.srv.Stats()
	res := closedLoop(closedClients, budget, w.request)
	ph := &phase{layers: map[string]float64{}, elapsed: res.elapsed}
	for i, err := range res.errs {
		ph.attempted++
		if err != nil {
			ph.fail(err)
			continue
		}
		ph.ops++
		ph.lat = append(ph.lat, res.lat[i])
	}
	if traced {
		d := deltaStats(before, w.srv.Stats())
		serveLayers(ph.layers, d, float64(ph.ops))
		ph.layers["http.overhead_us"] = 1e3*mean(ph.lat) - ph.layers["serve.total_us"]
		ph.layers["json.encode_us"], ph.layers["json.decode_us"] = w.codecCost()
	}
	return ph, nil
}

// codecCost times encoding/json on this workload's own request and reply
// bodies, in microseconds per call.
func (w *serveWorkload) codecCost() (enc, dec float64) {
	const n = 200
	var encT, decT time.Duration
	for k := 0; k < n; k++ {
		i := w.payload(-1, k)
		t := time.Now()
		body, err := json.Marshal(serve.PredictRequest{Matrix: w.fix.mats[i]})
		encT += time.Since(t)
		if err != nil {
			continue
		}
		reply, _ := json.Marshal(serve.PredictResponse{Class: w.fix.classes[i], Probs: w.fix.probs[i], ModelDigest: w.fix.digest})
		var req serve.PredictRequest
		var resp serve.PredictResponse
		t = time.Now()
		_ = json.Unmarshal(body, &req)
		_ = json.Unmarshal(reply, &resp)
		decT += time.Since(t)
	}
	return float64(encT.Microseconds()) / n, float64(decT.Microseconds()) / n
}

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Shutdown(context.Background())
		w.ts, w.srv = nil, nil
	}
}

// statsDelta is the change of a sink's counters and histograms over a
// phase, keyed by metric name (instances summed).
type statsDelta struct {
	counters map[string]float64
	count    map[string]float64
	sum      map[string]float64
}

func deltaStats(before, after *obs.Snapshot) statsDelta {
	d := statsDelta{counters: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
	add := func(s *obs.Snapshot, sign float64) {
		for _, c := range s.Counters {
			d.counters[c.Key.Component+"/"+c.Key.Name] += sign * float64(c.Value)
		}
		for _, h := range s.Histograms {
			k := h.Key.Component + "/" + h.Key.Name
			d.count[k] += sign * float64(h.Count)
			d.sum[k] += sign * h.Sum
		}
	}
	add(after, 1)
	add(before, -1)
	return d
}

func (d statsDelta) mean(key string) float64 { return ratio(d.sum[key], d.count[key]) }

// serveLayers fills the serve.* metrics from a phase's serving-sink delta;
// ops is the number of requests the phase completed.
func serveLayers(l map[string]float64, d statsDelta, ops float64) {
	l["serve.queue_wait_us"] = d.mean("serve/queue_wait_ns") / 1e3
	l["serve.model_us"] = d.mean("serve/model_ns") / 1e3
	l["serve.total_us"] = d.mean("serve/total_ns") / 1e3
	l["serve.batch_size_mean"] = d.mean("serve/batch_size")
	l["serve.batches"] = ratio(d.counters["serve/batches"], ops)
	l["serve.errors"] = ratio(d.counters["serve/errors"], ops)
}
