package mitigate

import (
	"fmt"

	"quanterference/internal/forecast"
)

// The thresholds every policy shares.
const (
	// engageClass is the lowest predicted slowdown class that counts as hot:
	// the paper's >=2x bin.
	engageClass = 1
	// lead is how many windows ahead a forecast alarm may be and still
	// engage: the stock forecaster's longest horizon.
	lead = 4
	// releaseAfter is how many consecutive clean observations end an
	// engagement: hysteresis against prediction flicker.
	releaseAfter = 2
)

// Observation is what a policy sees once per monitoring window: the
// classifier's verdict on the window that just closed, plus — when a
// forecaster is wired in — the sequence head's view of the windows ahead.
// Observations are per protected client, DIAL-style: they are assembled from
// that client's own window stream (its client-side monitor joined with the
// server-side samples), so a policy needs no global coordinator to decide.
//
// The zero Observation is a clean window with no forecast.
type Observation struct {
	// Class is the predicted slowdown class of the window that just closed
	// (the paper's classifier output; 0 = no degradation).
	Class int
	// Forecast is the sequence head's prediction from the history up to and
	// including this window. Nil when no forecaster is attached or its
	// history is not yet warm; the policy then decides on Class alone.
	Forecast *forecast.Prediction
}

// Verdict is the actuation state a policy wants after an observation:
// whether the interfering clients should be rate-limited (token-bucket
// throttle, NRS-TBF style) or have their next bursts held back
// (defer/reschedule). The zero Verdict means "leave everyone alone".
type Verdict struct {
	// Throttle asks for per-client rate limits on the interfering clients.
	Throttle bool
	// Defer asks for the interfering clients' next bursts to be held until
	// a later verdict clears it.
	Defer bool
	// Reason is a compact, deterministic explanation ("class 1 >= 1",
	// "forecast lead 2 <= 4", "cooldown 1/2", "clean") for the action log.
	Reason string
}

// Policy is the engage/release state machine behind every mitigation mode.
// An observation is hot when its class reaches the engage class or, in the
// forecast-reading modes, when the forecast predicts degradation within the
// lead. A hot observation engages at once and restarts the cooldown;
// releasing needs releaseAfter consecutive clean observations, so a
// flickering predictor (hot, clean, hot, ...) never releases.
//
// A Policy is deterministic — the same observation sequence always yields
// the same verdicts, the property the MitigationStudy golden pins — and
// single-goroutine, like the Framework and Forecaster it consumes. Use one
// per stream.
type Policy struct {
	forecasts bool // a forecast alarm within lead windows is hot too
	defers    bool // an engagement holds bursts instead of throttling

	engaged bool
	clean   int // consecutive clean observations while engaged
}

// NewReactiveThrottle returns the classic threshold-on-prediction policy:
// throttle while the current window's class is hot. It ignores forecasts,
// which makes it the baseline every forecast-driven mode is measured
// against.
func NewReactiveThrottle() *Policy { return &Policy{} }

// NewProactiveThrottle returns the forecast-driven throttle: it engages on a
// hot window (so it is never later than the reactive policy) or on a
// forecast alarm within the lead, so the rate limits are already in force
// when the burst lands. Without a forecast it behaves exactly like the
// reactive policy.
func NewProactiveThrottle() *Policy { return &Policy{forecasts: true} }

// NewDeferBurst returns the defer/reschedule policy: on the proactive
// policy's trigger it holds the interfering clients' next bursts entirely
// instead of rate-limiting them, so the predicted-hot window passes with the
// protected application running alone and the held work resumes after.
func NewDeferBurst() *Policy { return &Policy{forecasts: true, defers: true} }

// Decide consumes one observation and returns the desired actuation state.
func (p *Policy) Decide(obs Observation) Verdict {
	nowHot := obs.Class >= engageClass
	aheadHot := p.forecasts && obs.Forecast != nil && obs.Forecast.Degrading() &&
		obs.Forecast.LeadWindows <= lead
	switch {
	case nowHot || aheadHot:
		p.engaged, p.clean = true, 0
	case p.engaged:
		p.clean++
		if p.clean >= releaseAfter {
			p.engaged, p.clean = false, 0
		}
	}
	reason := "clean"
	switch {
	case nowHot:
		reason = fmt.Sprintf("class %d >= %d", obs.Class, engageClass)
	case aheadHot:
		reason = fmt.Sprintf("forecast lead %d <= %d", obs.Forecast.LeadWindows, lead)
	case p.engaged:
		reason = fmt.Sprintf("cooldown %d/%d", p.clean, releaseAfter)
	}
	return Verdict{Throttle: p.engaged && !p.defers, Defer: p.engaged && p.defers, Reason: reason}
}
