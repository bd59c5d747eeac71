package mitigate

import (
	"fmt"

	"quanterference/internal/forecast"
	"quanterference/internal/sim"
)

// Observation is what a policy sees once per monitoring window: the
// classifier's verdict on the window that just closed, plus — when a
// forecaster is wired in — the sequence head's view of the windows ahead.
// Observations are per protected client, DIAL-style: they are assembled from
// that client's own window stream (its client-side monitor joined with the
// server-side samples), so a policy needs no global coordinator to decide.
//
// The zero Observation is a clean window at t=0 with no forecast; policies
// treat it as "no degradation anywhere in sight".
type Observation struct {
	// At is the simulated time of the window boundary.
	At sim.Time
	// Window is the window index in the stream (0-based).
	Window int
	// Class is the predicted slowdown class of the window that just closed
	// (the paper's classifier output; 0 = no degradation).
	Class int
	// Forecast is the sequence head's prediction from the history up to and
	// including this window. Nil when no forecaster is attached or its
	// history is not yet warm; policies must tolerate nil and fall back to
	// Class alone.
	Forecast *forecast.Prediction
}

// Verdict is the actuation state a policy wants after an observation:
// whether the interfering clients should be rate-limited (token-bucket
// throttle, NRS-TBF style) and/or have their next bursts held back
// (defer/reschedule). The zero Verdict means "leave everyone alone".
type Verdict struct {
	// Throttle asks for per-client rate limits on the interfering clients.
	Throttle bool
	// Defer asks for the interfering clients' next bursts to be held until
	// a later verdict clears it.
	Defer bool
	// Reason is a compact, deterministic explanation ("class 1 >= 1",
	// "forecast lead 2 <= 4", "clean 2/2") for logs and audit trails.
	Reason string
}

// Engaged reports whether the verdict actuates anything at all.
func (v Verdict) Engaged() bool { return v.Throttle || v.Defer }

// Policy turns a stream of per-window observations into actuation verdicts.
// Policies are deterministic state machines: the same observation sequence
// always produces the same verdict sequence (no clocks, no randomness), so
// same-seed simulation runs replay decision-for-decision — the property the
// MitigationStudy golden pins.
//
// Policies are stateful (hysteresis counters) and single-goroutine, like the
// Forecaster and Framework they consume. Use one policy instance per stream;
// Reset rewinds it for a new stream.
type Policy interface {
	// Name identifies the policy in logs, CSVs, and metrics.
	Name() string
	// Decide consumes one observation and returns the desired state.
	Decide(obs Observation) Verdict
	// Reset clears hysteresis state for a fresh stream.
	Reset()
}

// policyParams carries the pointer-default option state: nil means "use the
// policy's default", a pointer means "the caller said exactly this" — so an
// explicit 0 is distinguishable from unset without any sentinel value.
type policyParams struct {
	engageClass  *int
	releaseAfter *int
	lead         *int
}

// PolicyOption tunes a policy constructor. Options exist so a zero value
// ("use the default") is distinguishable from an explicit setting:
// WithEngageClass(0) literally means "engage on every prediction, class 0
// included".
type PolicyOption func(*policyParams)

// WithEngageClass sets the minimum predicted slowdown class that counts as
// "hot" (default 1, the paper's >=2x bin). 0 engages on every prediction.
// Negative classes are rejected at construction time with an error wrapping
// ErrInvalidConfig.
func WithEngageClass(class int) PolicyOption {
	return func(p *policyParams) { c := class; p.engageClass = &c }
}

// WithReleaseAfter sets how many consecutive clean observations end an
// engagement (default 2 — hysteresis against prediction flicker). 1 releases
// on the first clean window; 0 and negatives are rejected with an error
// wrapping ErrInvalidConfig.
func WithReleaseAfter(windows int) PolicyOption {
	return func(p *policyParams) { w := windows; p.releaseAfter = &w }
}

// WithLead sets how far ahead a forecast alarm may be and still trigger
// engagement, in windows (default 4, the stock forecaster's longest
// horizon). Only the proactive and defer policies read it; a forecast
// predicting degradation in more than lead windows is ignored until it gets
// closer. Non-positive leads are rejected with an error wrapping
// ErrInvalidConfig.
func WithLead(windows int) PolicyOption {
	return func(p *policyParams) { w := windows; p.lead = &w }
}

// resolvePolicyParams applies defaults and validates. The defaults: engage
// class 1, release after 2 clean windows, lead 4.
func resolvePolicyParams(opts []PolicyOption) (engageClass, releaseAfter, lead int, err error) {
	var p policyParams
	for _, fn := range opts {
		if fn != nil {
			fn(&p)
		}
	}
	engageClass, releaseAfter, lead = 1, 2, 4
	if p.engageClass != nil {
		engageClass = *p.engageClass
	}
	if p.releaseAfter != nil {
		releaseAfter = *p.releaseAfter
	}
	if p.lead != nil {
		lead = *p.lead
	}
	if engageClass < 0 {
		return 0, 0, 0, fmt.Errorf("%w: negative engage class %d (0 already engages on every prediction)",
			ErrInvalidConfig, engageClass)
	}
	if releaseAfter < 1 {
		return 0, 0, 0, fmt.Errorf("%w: release-after %d (want >= 1 clean window)",
			ErrInvalidConfig, releaseAfter)
	}
	if lead < 1 {
		return 0, 0, 0, fmt.Errorf("%w: forecast lead %d (want >= 1 window)", ErrInvalidConfig, lead)
	}
	return engageClass, releaseAfter, lead, nil
}

// hysteresis is the shared engage/release state machine: any hot observation
// (re)engages immediately and zeroes the clean count; releasing needs
// releaseAfter consecutive clean observations. A hot window mid-cooldown
// restarts the cooldown from scratch — the "engage-then-immediately-clean
// flicker" edge the tests pin.
type hysteresis struct {
	releaseAfter int
	engaged      bool
	clean        int
}

// step consumes one observation's hot/clean bit and reports the engaged
// state after it, plus whether this step switched state.
func (h *hysteresis) step(hot bool) (engaged, switched bool) {
	if hot {
		h.clean = 0
		if !h.engaged {
			h.engaged = true
			return true, true
		}
		return true, false
	}
	if h.engaged {
		h.clean++
		if h.clean >= h.releaseAfter {
			h.engaged = false
			h.clean = 0
			return false, true
		}
	}
	return h.engaged, false
}

func (h *hysteresis) reset() { h.engaged = false; h.clean = 0 }

// ReactiveThrottle is the classic threshold-on-prediction policy — the
// pre-policy Controller behaviour under the Policy interface: throttle while
// the current window's predicted class reaches the engage class, release
// after ReleaseAfter consecutive clean windows. It ignores forecasts
// entirely, which makes it the baseline every forecast-driven policy is
// measured against in the MitigationStudy.
type ReactiveThrottle struct {
	engageClass int
	hyst        hysteresis
}

// NewReactiveThrottle builds the policy from options (defaults: engage class
// 1, release after 2). Invalid options return an error wrapping
// ErrInvalidConfig.
func NewReactiveThrottle(opts ...PolicyOption) (*ReactiveThrottle, error) {
	engage, release, _, err := resolvePolicyParams(opts)
	if err != nil {
		return nil, err
	}
	return &ReactiveThrottle{engageClass: engage, hyst: hysteresis{releaseAfter: release}}, nil
}

// Name implements Policy.
func (p *ReactiveThrottle) Name() string { return "reactive" }

// Reset implements Policy.
func (p *ReactiveThrottle) Reset() { p.hyst.reset() }

// Decide throttles on current-window class alone.
func (p *ReactiveThrottle) Decide(obs Observation) Verdict {
	hot := obs.Class >= p.engageClass
	engaged, _ := p.hyst.step(hot)
	return Verdict{Throttle: engaged, Reason: p.reason(obs, hot, engaged)}
}

func (p *ReactiveThrottle) reason(obs Observation, hot, engaged bool) string {
	switch {
	case hot:
		return fmt.Sprintf("class %d >= %d", obs.Class, p.engageClass)
	case engaged:
		return fmt.Sprintf("cooldown %d/%d", p.hyst.clean, p.hyst.releaseAfter)
	default:
		return "clean"
	}
}

// ProactiveThrottle is the forecast-driven throttle: it engages when the
// current window is already hot (so it is never later than ReactiveThrottle)
// OR when the forecaster predicts degradation within Lead windows — engaging
// up to Lead windows before the degraded window arrives, so the rate limits
// are already in force when the burst lands. Release needs ReleaseAfter
// consecutive observations that are clean on both signals: a clean current
// window with a degrading forecast keeps the throttle on (hysteresis over
// the union).
//
// Without a forecaster (Observation.Forecast nil) it degrades gracefully to
// exactly ReactiveThrottle.
type ProactiveThrottle struct {
	engageClass int
	lead        int
	hyst        hysteresis
}

// NewProactiveThrottle builds the policy from options (defaults: engage
// class 1, release after 2, lead 4). Invalid options return an error
// wrapping ErrInvalidConfig.
func NewProactiveThrottle(opts ...PolicyOption) (*ProactiveThrottle, error) {
	engage, release, lead, err := resolvePolicyParams(opts)
	if err != nil {
		return nil, err
	}
	return &ProactiveThrottle{engageClass: engage, lead: lead, hyst: hysteresis{releaseAfter: release}}, nil
}

// Name implements Policy.
func (p *ProactiveThrottle) Name() string { return "proactive" }

// Reset implements Policy.
func (p *ProactiveThrottle) Reset() { p.hyst.reset() }

// forecastHot reports whether the forecast alarms within the policy's lead.
func forecastHot(obs Observation, lead int) bool {
	return obs.Forecast != nil && obs.Forecast.Degrading() && obs.Forecast.LeadWindows <= lead
}

// Decide throttles on current class or near-enough forecast alarms.
func (p *ProactiveThrottle) Decide(obs Observation) Verdict {
	nowHot := obs.Class >= p.engageClass
	aheadHot := forecastHot(obs, p.lead)
	engaged, _ := p.hyst.step(nowHot || aheadHot)
	reason := "clean"
	switch {
	case nowHot:
		reason = fmt.Sprintf("class %d >= %d", obs.Class, p.engageClass)
	case aheadHot:
		reason = fmt.Sprintf("forecast lead %d <= %d", obs.Forecast.LeadWindows, p.lead)
	case engaged:
		reason = fmt.Sprintf("cooldown %d/%d", p.hyst.clean, p.hyst.releaseAfter)
	}
	return Verdict{Throttle: engaged, Reason: reason}
}

// DeferBurst is the defer/reschedule policy: instead of rate-limiting, it
// holds the interfering clients' next bursts entirely while a hot window is
// predicted or in progress, releasing the queued work once forecasts come
// back clean for ReleaseAfter consecutive windows — the predicted-hot window
// passes with the protected application running alone, and the interfering
// work resumes afterwards instead of trickling through a throttle. The
// engage trigger is the same union as ProactiveThrottle's (current class or
// forecast alarm within Lead), so it also works — reactively — without a
// forecaster.
type DeferBurst struct {
	engageClass int
	lead        int
	hyst        hysteresis
}

// NewDeferBurst builds the policy from options (defaults: engage class 1,
// release after 2, lead 4). Invalid options return an error wrapping
// ErrInvalidConfig.
func NewDeferBurst(opts ...PolicyOption) (*DeferBurst, error) {
	engage, release, lead, err := resolvePolicyParams(opts)
	if err != nil {
		return nil, err
	}
	return &DeferBurst{engageClass: engage, lead: lead, hyst: hysteresis{releaseAfter: release}}, nil
}

// Name implements Policy.
func (p *DeferBurst) Name() string { return "defer" }

// Reset implements Policy.
func (p *DeferBurst) Reset() { p.hyst.reset() }

// Decide defers on current class or near-enough forecast alarms.
func (p *DeferBurst) Decide(obs Observation) Verdict {
	nowHot := obs.Class >= p.engageClass
	aheadHot := forecastHot(obs, p.lead)
	engaged, _ := p.hyst.step(nowHot || aheadHot)
	reason := "clean"
	switch {
	case nowHot:
		reason = fmt.Sprintf("class %d >= %d", obs.Class, p.engageClass)
	case aheadHot:
		reason = fmt.Sprintf("forecast lead %d <= %d", obs.Forecast.LeadWindows, p.lead)
	case engaged:
		reason = fmt.Sprintf("cooldown %d/%d", p.hyst.clean, p.hyst.releaseAfter)
	}
	return Verdict{Defer: engaged, Reason: reason}
}
