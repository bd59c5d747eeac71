package ml

import (
	"encoding/json"
	"testing"

	"quanterference/internal/nn"
)

func modelsUnderTest() map[string]Model {
	return map[string]Model{
		"kernel":    NewKernelModel(KernelConfig{NTargets: 3, NFeat: 5, Classes: 2, Seed: 1}),
		"flat":      NewFlatModel(3, 5, 2, 1),
		"attention": NewAttentionModel(AttentionConfig{NTargets: 3, NFeat: 5, Classes: 2, Seed: 1}),
	}
}

// TestSaveLoadEveryKind round-trips every model kind through the persisted
// form frameworks and forecasters embed: Snapshot, JSON, Restore.
func TestSaveLoadEveryKind(t *testing.T) {
	vectors := [][]float64{{1, 0, -1, 2, 0.5}, {0, 1, 1, -2, 0}, {2, 2, 0, 0, 1}}
	for kind, m := range modelsUnderTest() {
		// Train a step so weights differ from initialization.
		m.LossAndGrad(vectors, 1, 1)
		for _, p := range m.Params() {
			for j := range p.W {
				p.W[j] += 0.01 * p.G[j]
				p.G[j] = 0
			}
		}
		wantProbs := m.ProbsInto(make([]float64, 2), vectors)
		spec, err := Snapshot(m)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", kind, err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		var back ModelSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		got, err := Restore(&back)
		if err != nil {
			t.Fatalf("%s: restore: %v", kind, err)
		}
		gotProbs := got.ProbsInto(make([]float64, 2), vectors)
		for i := range wantProbs {
			if gotProbs[i] != wantProbs[i] {
				t.Fatalf("%s: probs differ after round trip: %v vs %v",
					kind, gotProbs, wantProbs)
			}
		}
		if spec, _ := Snapshot(got); spec.Kind != kind {
			t.Fatalf("kind %q round-tripped as %q", kind, spec.Kind)
		}
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	m := NewKernelModel(KernelConfig{NTargets: 2, NFeat: 3, Classes: 2, Seed: 1})
	spec, err := Snapshot(m)
	if err != nil {
		t.Fatal(err)
	}
	spec.Weights[0] = spec.Weights[0][:1]
	if _, err := Restore(spec); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	spec2, _ := Snapshot(m)
	spec2.Kind = "bogus"
	if _, err := Restore(spec2); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestSnapshotRejectsForeignModel(t *testing.T) {
	if _, err := Snapshot(fakeModel{}); err == nil {
		t.Fatal("expected error")
	}
}

type fakeModel struct{}

func (fakeModel) ProbsInto(dst []float64, _ [][]float64) []float64 { return dst }
func (fakeModel) LossAndGrad([][]float64, int, float64) float64    { return 0 }
func (fakeModel) Params() []nn.Param                               { return nil }
