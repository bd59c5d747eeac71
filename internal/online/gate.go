package online

import (
	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/monitor/window"
	"quanterference/internal/shadow"
)

// holdFrac is the fraction of the example buffer held out of retraining and
// used to score candidate vs incumbent. The holdout is split off before
// training, so the candidate never sees it.
const holdFrac = 0.25

// retrainMargin is the retrain gate's margin until SetGateMargin moves it:
// the candidate is promoted iff its holdout accuracy is at least the
// incumbent's plus this margin, so it may give up 0.02 of accuracy.
const retrainMargin = -0.02

// scoreOn scores a framework's accuracy on a raw (unscaled) dataset. It
// leaves CE zero: the retrain gate ranks one challenger, so its CE
// tie-break never runs. The framework must be owned by the caller's
// goroutine (Predict is not goroutine-safe).
func scoreOn(name string, fw *core.Framework, ds *dataset.Dataset) shadow.Score {
	sc := shadow.Score{Name: name, Samples: ds.Len()}
	if ds.Len() == 0 {
		return sc
	}
	hits := 0
	for _, s := range ds.Samples {
		if class, _ := fw.Predict(window.Matrix(s.Vectors)); class == s.Label {
			hits++
		}
	}
	sc.Accuracy = float64(hits) / float64(ds.Len())
	return sc
}
