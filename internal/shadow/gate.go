package shadow

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// RejectAll is a margin no challenger can clear: accuracies lie in [0, 1],
// so no challenger beats the champion by more than 1. The forced-reject
// drills gate under it to prove the champion keeps serving.
const RejectAll float64 = 2

// Score is one model's score in a gate evaluation: accuracy and mean
// cross-entropy over the labeled samples it was judged on. The evaluator's
// scores are cumulative totals (not a sliding ring), which keeps each a
// permutation-invariant function of the labeled set, so concurrent mirror
// arrival order can never change a verdict. It is also a row of the
// /v1/shadow scoreboard.
type Score struct {
	Name    string `json:"name"`
	Samples int    `json:"samples"`
	// Accuracy and CE are the accuracy and the mean cross-entropy on the
	// true labels (lower is better, the tie-breaker at equal accuracy).
	Accuracy float64 `json:"accuracy"`
	CE       float64 `json:"ce"`
}

// GateResult records one gate evaluation: the best of the challengers
// against the champion.
type GateResult struct {
	// CandidateAccuracy and IncumbentAccuracy are the best challenger's and
	// the champion's accuracy.
	CandidateAccuracy float64
	IncumbentAccuracy float64
	// Samples is how many labeled samples stand behind the best
	// challenger's score.
	Samples int
	// Margin is the accuracy lead the challenger needed over the champion:
	// it promotes iff CandidateAccuracy >= IncumbentAccuracy + Margin. A
	// negative margin lets a challenger give up that much accuracy.
	Margin float64
	// Promote is the verdict.
	Promote bool
	// Winner names the promoted challenger, "" when the champion keeps its
	// seat.
	Winner string
	// Scores is every challenger's score in ranked order (best first), nil
	// without challengers.
	Scores []Score
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

// Gate is the one champion/challenger promotion gate. The challengers are
// ranked by accuracy (higher wins), then mean CE (lower wins), then the
// seeded hash, then name; the ranking is a pure function of (seed, scores),
// so same-seed replays of the same labeled stream emit identical verdicts.
//
// The best challenger is promoted iff at least minSamples samples stand
// behind both its score and the champion's, and its accuracy is at least
// the champion's plus margin. With no challengers the champion keeps its
// seat. The shadow evaluator gates on live traffic with a positive margin
// (a challenger must earn the seat); the continuous-learning loop gates its
// one retrained candidate on a holdout with a negative one.
func Gate(seed int64, champion Score, challengers []Score, margin float64, minSamples int) GateResult {
	g := GateResult{
		IncumbentAccuracy: champion.Accuracy,
		Margin:            margin,
	}
	if len(challengers) == 0 {
		return g
	}
	ranked := append([]Score(nil), challengers...)
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
	g.Samples = top.Samples
	if top.Samples >= minSamples && champion.Samples >= minSamples &&
		top.Accuracy >= champion.Accuracy+margin {
		g.Winner = top.Name
		g.Promote = true
	}
	return g
}
