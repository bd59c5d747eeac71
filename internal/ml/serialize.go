package ml

import (
	"errors"
	"fmt"

	"quanterference/internal/nn"
)

// ModelSpec is the serialized form of a trained classifier: enough to
// reconstruct the architecture and restore its weights.
type ModelSpec struct {
	Kind     string      `json:"kind"` // kernel, flat, attention
	NTargets int         `json:"n_targets"`
	NFeat    int         `json:"n_feat"`
	Classes  int         `json:"classes"`
	Seed     int64       `json:"seed"`
	Weights  [][]float64 `json:"weights"`
}

// ExportWeights snapshots every parameter tensor of a model, in Params
// order, into freshly allocated slices — the bit-exact weight state, suitable
// for equality comparison across runs (the determinism tests).
func ExportWeights(m Model) [][]float64 { return nn.SnapshotParams(m.Params()) }

// CloneModel builds an independent copy of a model: same architecture, same
// weights, private gradient state and scratch. Like every model outside a
// training call, the clone holds weights and inference scratch only; its
// gradient accumulators appear when it trains. Unlike Replica (which shares
// weight storage for data-parallel training), a clone may be trained or used
// for inference without affecting the original — the primitive behind
// warm-started retraining, where a candidate starts from the incumbent's
// weights but must not perturb the incumbent while it keeps serving.
func CloneModel(m Model) (Model, error) {
	spec, err := Snapshot(m)
	if err != nil {
		return nil, err
	}
	return Restore(spec)
}

// Snapshot captures a model's architecture and weights. The model must be
// one of this package's concrete types.
func Snapshot(m Model) (*ModelSpec, error) {
	spec := &ModelSpec{Weights: nn.SnapshotParams(m.Params())}
	switch t := m.(type) {
	case *KernelModel:
		spec.Kind = "kernel"
		spec.NTargets, spec.NFeat, spec.Classes = t.nTargets, t.nFeat, t.classes
	case *FlatModel:
		spec.Kind = "flat"
		spec.NTargets, spec.NFeat, spec.Classes = t.nTargets, t.nFeat, t.classes
	case *AttentionModel:
		spec.Kind = "attention"
		spec.NTargets, spec.NFeat, spec.Classes = t.nTargets, t.nFeat, t.classes
	default:
		return nil, fmt.Errorf("ml: cannot snapshot %T", m)
	}
	return spec, nil
}

// Dimension bounds Restore checks before it allocates anything. They sit far
// above every model this repository builds (7 targets × 34 features, a few
// classes), so only a corrupt or hostile spec reaches them; below them every
// constructor accepts the spec and the parameters stay a few megabytes.
const (
	maxSpecTargets = 1 << 10
	maxSpecFeat    = 1 << 10
	maxSpecInputs  = 1 << 14 // targets × features: the flat model's input width
	maxSpecClasses = 1 << 10
)

// checkDims rejects dimensions no model constructor accepts, or whose
// parameter tensors would be unreasonably large.
func (s *ModelSpec) checkDims() error {
	if s.NTargets < 1 || s.NTargets > maxSpecTargets ||
		s.NFeat < 1 || s.NFeat > maxSpecFeat ||
		s.NTargets*s.NFeat > maxSpecInputs ||
		s.Classes < 2 || s.Classes > maxSpecClasses {
		return fmt.Errorf("ml: model spec of %d targets x %d features x %d classes is out of bounds "+
			"(at most %d targets, %d features, %d inputs, 2 to %d classes)",
			s.NTargets, s.NFeat, s.Classes, maxSpecTargets, maxSpecFeat, maxSpecInputs, maxSpecClasses)
	}
	return nil
}

// Restore rebuilds the model a Snapshot described. A missing spec, an
// unknown kind, out-of-bounds dimensions or weights of the wrong shape return
// an error; nothing is allocated for a spec whose dimensions are rejected.
func Restore(spec *ModelSpec) (Model, error) {
	if spec == nil {
		return nil, errors.New("ml: missing model spec")
	}
	if err := spec.checkDims(); err != nil {
		return nil, err
	}
	var m Model
	switch spec.Kind {
	case "kernel":
		m = NewKernelModel(KernelConfig{
			NTargets: spec.NTargets, NFeat: spec.NFeat, Classes: spec.Classes, Seed: spec.Seed,
		})
	case "flat":
		m = NewFlatModel(spec.NTargets, spec.NFeat, spec.Classes, spec.Seed)
	case "attention":
		m = NewAttentionModel(AttentionConfig{
			NTargets: spec.NTargets, NFeat: spec.NFeat, Classes: spec.Classes, Seed: spec.Seed,
		})
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", spec.Kind)
	}
	if err := nn.RestoreParams(m.Params(), spec.Weights); err != nil {
		return nil, err
	}
	return m, nil
}
