package ml

import (
	"math"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

func parallelTestDataset(n, nTargets, nFeat, classes int) *dataset.Dataset {
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, nTargets, classes)
	rng := sim.NewRNG(31)
	for i := 0; i < n; i++ {
		vecs := make([][]float64, nTargets)
		for t := range vecs {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng.NormFloat64()
			}
			vecs[t] = v
		}
		ds.Add(&dataset.Sample{Label: i % classes, Degradation: 1, Vectors: vecs})
	}
	return ds
}

func weightBits(m Model) []uint64 {
	var out []uint64
	for _, p := range m.Params() {
		for _, w := range p.W {
			out = append(out, math.Float64bits(w))
		}
	}
	return out
}

// trainWithWorkers trains a fresh model of the given constructor with the
// given worker count and returns the final weights' bit patterns and loss.
func trainWithWorkers(t *testing.T, mk func() Model, ds *dataset.Dataset, workers int) ([]uint64, uint64) {
	t.Helper()
	m := mk()
	loss := Train(m, ds, TrainConfig{
		Epochs: 3, Seed: 99, Workers: workers,
	})
	return weightBits(m), math.Float64bits(loss)
}

// TestParallelTrainingDeterministic is the load-bearing determinism
// regression: the sharded trainer must produce bit-identical weights and
// losses for every worker count, including the degenerate 1-worker
// schedule, for every replicable model architecture.
func TestParallelTrainingDeterministic(t *testing.T) {
	ds := parallelTestDataset(110, 5, 9, 3) // odd sizes exercise ragged shards
	models := map[string]func() Model{
		"kernel": func() Model {
			return NewKernelModel(KernelConfig{NTargets: 5, NFeat: 9, Classes: 3, Seed: 7})
		},
		"flat": func() Model {
			return NewFlatModel(5, 9, 3, 7)
		},
		"attention": func() Model {
			return NewAttentionModel(AttentionConfig{NTargets: 5, NFeat: 9, Classes: 3, Seed: 7})
		},
	}
	for name, mk := range models {
		t.Run(name, func(t *testing.T) {
			refW, refLoss := trainWithWorkers(t, mk, ds, 1)
			for _, workers := range []int{2, 4, 8} {
				gotW, gotLoss := trainWithWorkers(t, mk, ds, workers)
				if gotLoss != refLoss {
					t.Errorf("workers=%d: loss bits %x != serial %x", workers, gotLoss, refLoss)
				}
				if len(gotW) != len(refW) {
					t.Fatalf("workers=%d: %d weights, want %d", workers, len(gotW), len(refW))
				}
				for i := range gotW {
					if gotW[i] != refW[i] {
						t.Fatalf("workers=%d: weight %d bits %x != serial %x",
							workers, i, gotW[i], refW[i])
					}
				}
			}
		})
	}
}

// TestParallelTrainingLearns sanity-checks that the sharded path actually
// trains: loss must drop and accuracy beat chance on a separable dataset.
func TestParallelTrainingLearns(t *testing.T) {
	nTargets, nFeat := 4, 6
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(5)
	for i := 0; i < 200; i++ {
		label := i % 2
		vecs := make([][]float64, nTargets)
		for tt := range vecs {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng.NormFloat64() + float64(label)*2.5
			}
			vecs[tt] = v
		}
		ds.Add(&dataset.Sample{Label: label, Degradation: 1, Vectors: vecs})
	}
	m := NewKernelModel(KernelConfig{NTargets: nTargets, NFeat: nFeat, Classes: 2, Seed: 3})
	var first, last float64
	Train(m, ds, TrainConfig{Epochs: 15, Seed: 8, Workers: 4,
		OnEpoch: func(epoch int, loss float64) {
			if epoch == 0 {
				first = loss
			}
			last = loss
		}})
	if !(last < first/2) {
		t.Fatalf("parallel training failed to learn: first epoch loss %.4f, last %.4f", first, last)
	}
	if acc := Evaluate(m, ds).Accuracy(); acc < 0.9 {
		t.Fatalf("parallel training accuracy %.3f < 0.9", acc)
	}
}

// TestShardBounds pins the shard partition: covering, non-overlapping,
// ceil-sized, independent of worker count by construction.
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ n, ns int }{
		{32, 8}, {20, 8}, {7, 7}, {1, 1}, {9, 8}, {64, 8},
	} {
		covered := 0
		prevHi := 0
		for s := 0; s < tc.ns; s++ {
			lo, hi := shardBounds(tc.n, tc.ns, s)
			if lo != prevHi && lo < tc.n {
				t.Fatalf("n=%d ns=%d shard %d: gap or overlap at %d (prev end %d)",
					tc.n, tc.ns, s, lo, prevHi)
			}
			if hi > prevHi {
				prevHi = hi
			}
			covered += hi - lo
		}
		if covered != tc.n || prevHi != tc.n {
			t.Fatalf("n=%d ns=%d: shards cover %d ending at %d", tc.n, tc.ns, covered, prevHi)
		}
	}
}

// TestAccumulateGrads checks the pairwise reduction primitive.
func TestAccumulateGrads(t *testing.T) {
	rng := sim.NewRNG(1)
	a := nn.NewDense(3, 2, rng)
	b := a.Replica()
	if &a.W[0] != &b.W[0] {
		t.Fatal("replica does not share weights")
	}
	a.AllocGrads()
	b.AllocGrads()
	a.GW[0], b.GW[0] = 1.5, 2.25
	a.GB[1], b.GB[1] = -1, 0.5
	nn.AccumulateGrads(a.Params(), b.Params())
	if a.GW[0] != 3.75 || a.GB[1] != -0.5 {
		t.Fatalf("accumulate wrong: GW0=%g GB1=%g", a.GW[0], a.GB[1])
	}
	if b.GW[0] != 2.25 {
		t.Fatal("accumulate mutated source")
	}
}

// TestReplicaIsolation verifies a replica's backward pass leaves the
// original's gradients and caches untouched while updating shared weights'
// predictions coherently.
func TestReplicaIsolation(t *testing.T) {
	m := NewKernelModel(KernelConfig{NTargets: 3, NFeat: 4, Classes: 2, Seed: 2})
	rep := m.Replica().(*KernelModel)
	vecs := [][]float64{{1, 2, 3, 4}, {0, -1, 1, 0}, {2, 0, 0, 1}}
	rep.LossAndGrad(vecs, 1, 1)
	for i, p := range m.Params() {
		for j, g := range p.G {
			if g != 0 {
				t.Fatalf("replica backward dirtied original grad %d[%d]=%g", i, j, g)
			}
		}
	}
	pm := m.ProbsInto(make([]float64, 2), vecs)
	pr := rep.ProbsInto(make([]float64, 2), vecs)
	for c := range pm {
		if math.Float64bits(pm[c]) != math.Float64bits(pr[c]) {
			t.Fatal("replica and original disagree on shared weights")
		}
	}
}
