package online

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/monitor/window"
)

// holdFrac is the fraction of the example buffer held out of retraining and
// used to score candidate vs incumbent. The holdout is split off before
// training, so the candidate never sees it.
const holdFrac = 0.25

// GateConfig tunes the candidate evaluation gate.
type GateConfig struct {
	// Margin is how much holdout accuracy the candidate may give up relative
	// to the incumbent and still be promoted: promote iff
	// candidate >= incumbent - Margin (default 0.02). A negative margin
	// demands the candidate *beat* the incumbent by |Margin|; anything below
	// -1 is an impossible bar that force-rejects every candidate (the
	// rollback drill knob cmd/quantonline exposes as -gate-margin).
	Margin float64
}

func (c *GateConfig) applyDefaults() {
	if c.Margin == 0 {
		c.Margin = 0.02
	}
}

// GateResult records one candidate evaluation — either the 2-way holdout
// gate of the continuous-learning loop (candidate vs incumbent on a shared
// holdout) or the N-way shadow gate (up to N challengers vs the champion on
// mirrored live traffic, EvaluateShadowGate). The 2-way fields keep their
// original meaning in both shapes; the N-way extension adds who won and the
// full per-candidate scoreboard.
type GateResult struct {
	// CandidateAccuracy and IncumbentAccuracy are holdout accuracies (2-way),
	// or the winning challenger's and the champion's live accuracy (N-way).
	CandidateAccuracy float64
	IncumbentAccuracy float64
	// Holdout is how many examples the decision rests on: the holdout size
	// (2-way) or the winning challenger's labeled sample count (N-way).
	Holdout int
	// Margin is the margin the decision used. The sign convention differs by
	// gate: the 2-way retrain gate promotes a candidate that gives up at most
	// Margin accuracy (candidate >= incumbent - Margin), while the N-way
	// shadow gate promotes only a challenger that *beats* the champion by at
	// least Margin (winner >= champion + Margin) — a model earns a fleet-wide
	// rollout, it is not granted one for breaking even.
	Margin float64
	// Promote is the verdict.
	Promote bool
	// Winner names the winning challenger in an N-way evaluation, "" when the
	// champion keeps its seat (and always "" from the 2-way holdout gate).
	Winner string
	// Scores is the N-way per-candidate scoreboard in ranked order (winner
	// first), nil from the 2-way holdout gate.
	Scores []CandidateScore
}

// CandidateScore is one model's online score in an N-way gate evaluation:
// cumulative accuracy and mean cross-entropy over the live labeled samples
// it has been judged on. Cumulative totals (not a sliding ring) keep the
// score a permutation-invariant function of the labeled set, so concurrent
// mirror arrival order can never change a verdict.
type CandidateScore struct {
	Name     string  `json:"name"`
	Accuracy float64 `json:"accuracy"`
	// CE is the mean cross-entropy on the true labels (lower is better) —
	// the tie-breaker when accuracies are equal.
	CE      float64 `json:"ce"`
	Samples int     `json:"samples"`
}

// rankScore is the deterministic seeded tie-break of last resort: two
// challengers identical on accuracy and CE are ordered by the fnv64a hash of
// (seed, name), so every same-seed evaluation agrees on the winner without
// favoring registration order.
func rankScore(seed int64, name string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(name))
	return h.Sum64()
}

// EvaluateShadowGate is the N-way generalization of the holdout gate: up to
// N challenger scores measured on live mirrored traffic are ranked against
// the champion's, and at most one challenger — the winner — is put up for
// promotion. Ranking is accuracy (higher wins), then mean CE (lower wins),
// then the seeded hash, then name; the ranking is a pure function of
// (seed, scores), so same-seed replays of the same labeled stream emit
// identical verdicts.
//
// The winner is promoted only when it earned the seat: at least minSamples
// labeled samples behind both its own score and the champion's, and an
// accuracy lead of at least margin over the champion. A margin above 1 is an
// impossible bar that force-rejects every challenger — the shadow
// equivalent of the 2-way gate's margin-below-minus-one rollback drill. With
// no challengers the champion trivially keeps its seat.
func EvaluateShadowGate(seed int64, champion CandidateScore, challengers []CandidateScore, margin float64, minSamples int) GateResult {
	g := GateResult{
		IncumbentAccuracy: champion.Accuracy,
		Margin:            margin,
	}
	if len(challengers) == 0 {
		return g
	}
	ranked := append([]CandidateScore(nil), challengers...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Accuracy != ranked[j].Accuracy {
			return ranked[i].Accuracy > ranked[j].Accuracy
		}
		if ranked[i].CE != ranked[j].CE {
			return ranked[i].CE < ranked[j].CE
		}
		hi, hj := rankScore(seed, ranked[i].Name), rankScore(seed, ranked[j].Name)
		if hi != hj {
			return hi < hj
		}
		return ranked[i].Name < ranked[j].Name
	})
	g.Scores = ranked
	top := ranked[0]
	g.CandidateAccuracy = top.Accuracy
	g.Holdout = top.Samples
	if top.Samples >= minSamples && champion.Samples >= minSamples &&
		top.Accuracy >= champion.Accuracy+margin {
		g.Winner = top.Name
		g.Promote = true
	}
	return g
}

// accuracyOn scores a framework on a raw (unscaled) dataset. The framework
// must be owned by the caller's goroutine (Predict is not goroutine-safe).
func accuracyOn(fw *core.Framework, ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	hits := 0
	for _, s := range ds.Samples {
		if class, _ := fw.Predict(window.Matrix(s.Vectors)); class == s.Label {
			hits++
		}
	}
	return float64(hits) / float64(ds.Len())
}

// evaluateGate compares a freshly trained candidate against the incumbent on
// a shared holdout neither trained on.
func evaluateGate(candidate, incumbent *core.Framework, holdout *dataset.Dataset, margin float64) GateResult {
	g := GateResult{
		CandidateAccuracy: accuracyOn(candidate, holdout),
		IncumbentAccuracy: accuracyOn(incumbent, holdout),
		Holdout:           holdout.Len(),
		Margin:            margin,
	}
	g.Promote = g.Holdout > 0 && g.CandidateAccuracy >= g.IncumbentAccuracy-margin
	return g
}
