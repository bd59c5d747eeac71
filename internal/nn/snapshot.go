package nn

import "fmt"

// SnapshotParams copies every parameter tensor's weights, in Params order,
// into freshly allocated slices. Together with RestoreParams it is the
// weight-level save/restore primitive behind model serialization
// (internal/ml's Snapshot/Restore) and warm-started retraining
// (internal/online): a snapshot taken between optimizer steps captures the
// exact bits, so restoring it reproduces the model's predictions identically.
// Both read and write W only: snapshotting or restoring never touches or
// allocates gradient accumulators, which exist only while a model trains.
func SnapshotParams(params []Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

// RestoreParams copies a SnapshotParams result back into the parameter
// tensors. Shapes must match exactly: the tensor count and every tensor's
// length. Nothing is written on error, so a failed restore leaves the model
// untouched.
func RestoreParams(params []Param, weights [][]float64) error {
	if len(params) != len(weights) {
		return fmt.Errorf("nn: weight count %d, model has %d tensors", len(weights), len(params))
	}
	for i, p := range params {
		if len(p.W) != len(weights[i]) {
			return fmt.Errorf("nn: tensor %d has %d weights, snapshot has %d",
				i, len(p.W), len(weights[i]))
		}
	}
	for i, p := range params {
		copy(p.W, weights[i])
	}
	return nil
}
