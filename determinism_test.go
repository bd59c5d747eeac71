// Determinism regression tests pinning the simulator trace and the trained
// model weights to golden fingerprints captured before the hot-path
// performance pass (object pooling, scratch buffers, parallel training).
//
// The goldens encode two contracts:
//
//  1. Object pooling in the simulator (event free-lists, request pools,
//     extent-map scratch buffers) must not change simulated behaviour: a run
//     produces a byte-identical DXT trace to the pre-pool implementation.
//  2. The nn scratch-buffer scheme must not change arithmetic: the serial
//     training path produces bit-identical weights to the pre-scratch
//     implementation. The data-parallel path and the regressor are pinned
//     beside it.
//
// Regenerate the goldens with:
//
//	UPDATE_GOLDEN=1 go test -run TestGolden .
package quanterference_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	quant "quanterference"
	"quanterference/internal/ml"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
	"quanterference/internal/trace"
	"quanterference/internal/workload/io500"
)

// goldenScenario exercises the pooled hot paths end to end: metadata ops,
// striped writes with write-back caching, reads with readahead, a competing
// interference stream, and a fault episode perturbing the block queue.
func goldenScenario() quant.Scenario {
	faults, err := quant.ParseFaultSpecs("disk-slow:ost1:2:3:4,ost-stall:ost2:1:2")
	if err != nil {
		panic(err)
	}
	return quant.Scenario{
		Target: quant.TargetSpec{
			Gen: io500.New(io500.IorEasyWrite, io500.Params{
				Dir: "/golden", Ranks: 2, EasyFileBytes: 8 << 20}),
			Nodes: []string{"c0", "c1"},
			Ranks: 2,
		},
		Interference: []quant.InterferenceSpec{{
			Gen: io500.New(io500.IorEasyRead, io500.Params{
				Dir: "/noise", Ranks: 2, EasyFileBytes: 8 << 20}),
			Nodes: []string{"c2"},
			Ranks: 2,
		}},
		Faults: faults,
	}
}

// encodeTrace renders a run's client-side records in DXT text form.
func encodeTrace(res *quant.RunResult) string {
	var b strings.Builder
	w := trace.NewWriter(&b)
	for _, rec := range res.Records {
		w.Write(rec)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return b.String()
}

func goldenCompare(t *testing.T, path, got string) {
	t.Helper()
	full := filepath.Join("testdata", path)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with UPDATE_GOLDEN=1): %v", full, err)
	}
	if string(want) != got {
		t.Fatalf("%s: output diverged from golden (%d vs %d bytes)\n"+
			"pooling or scratch-buffer reuse changed simulated behaviour",
			full, len(got), len(want))
	}
}

// TestGoldenTrace pins the full simulator stack (engine, block queues, disks,
// network, Lustre servers, fault injection) to a byte-identical DXT trace.
func TestGoldenTrace(t *testing.T) {
	res, err := quant.RunE(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("golden run truncated")
	}
	goldenCompare(t, "golden_run.dxt", encodeTrace(res))
}

// TestGoldenTraceRepeatedRuns verifies pooled state carries nothing across
// runs: two fresh clusters produce identical traces.
func TestGoldenTraceRepeatedRuns(t *testing.T) {
	a, err := quant.RunE(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := quant.RunE(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	if encodeTrace(a) != encodeTrace(b) {
		t.Fatal("two identical scenarios produced different traces")
	}
}

// TestGoldenTraceRetryPath pins the clients' degraded-mode path byte for
// byte: two fail-slow OSTs under a 50 ms RPC timeout make bulk RPCs time
// out, back off with seeded jitter, and resend, so the trace fixes the
// retry limit, the backoff base and the jitter stream.
func TestGoldenTraceRetryPath(t *testing.T) {
	s := quant.Scenario{
		Target: quant.TargetSpec{
			Gen: io500.New(io500.IorEasyWrite, io500.Params{
				Dir: "/tgt", Ranks: 2, EasyFileBytes: 64 << 20}),
			Nodes: []string{"c0"},
			Ranks: 2,
		},
		Faults: []quant.FaultSpec{
			{Kind: quant.DiskSlow, Target: "ost0", Duration: 30 * sim.Second, Severity: 40},
			{Kind: quant.DiskSlow, Target: "ost1", Duration: 30 * sim.Second, Severity: 40},
		},
		RPCTimeout: 50 * sim.Millisecond,
	}
	res, err := quant.RunE(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("retry-path run truncated")
	}
	if res.Stats.CounterTotal("client", "retries") == 0 {
		t.Fatal("no client retries: the scenario no longer reaches the retry path")
	}
	goldenCompare(t, "golden_retry.dxt", encodeTrace(res))
}

// weightsFingerprint hashes every parameter's float64 bit pattern in order.
func weightsFingerprint(m interface{ Params() []nn.Param }) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.Params() {
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSerialWeights pins every trainer's arithmetic: the serial
// kernel-model path (the first two lines, unchanged since before the
// scratch-buffer scheme), the data-parallel path at Workers 2 — the value
// the online loop trains with — for each classifier architecture, and the
// regressor. The data-parallel and regressor pins train on 97 samples, so
// each epoch ends in a one-sample batch.
func TestGoldenSerialWeights(t *testing.T) {
	ds := syntheticDataset(96)
	m := ml.NewKernelModel(ml.KernelConfig{NTargets: 7, NFeat: 34, Classes: 2, Seed: 11})
	loss := ml.Train(m, ds, ml.TrainConfig{Epochs: 4, Seed: 23})
	got := fmt.Sprintf("weights %s\nloss %x\n", weightsFingerprint(m), math.Float64bits(loss))

	ragged := syntheticDataset(97)
	for _, arch := range []struct {
		name string
		m    ml.Model
	}{
		{"kernel", ml.NewKernelModel(ml.KernelConfig{NTargets: 7, NFeat: 34, Classes: 2, Seed: 11})},
		{"flat", ml.NewFlatModel(7, 34, 2, 11)},
		{"attention", ml.NewAttentionModel(ml.AttentionConfig{NTargets: 7, NFeat: 34, Classes: 2, Seed: 11})},
	} {
		loss := ml.Train(arch.m, ragged, ml.TrainConfig{Epochs: 4, Seed: 23, Workers: 2})
		got += fmt.Sprintf("workers2 %s weights %s\nworkers2 %s loss %x\n",
			arch.name, weightsFingerprint(arch.m), arch.name, math.Float64bits(loss))
	}

	// The regressor's targets need spread: the synthetic windows all carry
	// degradation 1.
	for i, s := range ragged.Samples {
		s.Degradation = 1 + float64(i%5)
	}
	reg := ml.NewKernelRegressor(7, 34, 11)
	mse := ml.TrainRegressor(reg, ragged, ml.TrainConfig{Epochs: 4, Seed: 23})
	got += fmt.Sprintf("regressor weights %s\nregressor mse %x\n",
		weightsFingerprint(reg), math.Float64bits(mse))
	goldenCompare(t, "golden_weights.txt", got)
}
