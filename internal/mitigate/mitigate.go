// Package mitigate closes the loop the paper motivates: its conclusion
// positions quantitative interference prediction as the missing input for
// "more effective I/O interference mitigation strategies". The package is a
// policy-driven actuation subsystem: a Controller watches the protected
// application's own window stream (per-client local metrics, DIAL-style —
// no global coordinator), feeds each window through the online classifier
// and, optionally, the forecast sequence head, and hands the resulting
// Observation to a pluggable Policy. The Policy's Verdict is then actuated
// on the interfering clients: token-bucket rate limits (NRS-TBF style, the
// paper's reference [13]) and/or deferring their next bursts until the
// predicted-hot window has passed.
//
// Three policies ship: ReactiveThrottle (threshold on the current window's
// prediction — the pre-policy behaviour), ProactiveThrottle (engages up to
// Lead windows before predicted degradation, using forecast.Prediction), and
// DeferBurst (pauses the interfering clients' bursts instead of throttling
// them). experiments.MitigationStudy measures each against a no-action
// baseline across a fault × workload scenario matrix.
//
// Determinism contract: policies are pure state machines over their
// observation sequence and the Controller runs entirely inside the
// simulator's single-threaded event loop, so same-seed runs produce
// bit-identical decision logs, engagement counts, and measured outcomes.
package mitigate

import (
	"errors"
	"fmt"
	"strings"

	"quanterference/internal/core"
	"quanterference/internal/forecast"
	"quanterference/internal/lustre"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// ErrInvalidConfig reports a policy or controller option set that the
// constructors refuse to run with — the mitigation sibling of
// core.ErrInvalidScenario. Match with errors.Is; the returned error wraps it
// with the offending option.
var ErrInvalidConfig = errors.New("mitigate: invalid config")

// Victim is one interfering client the controller can actuate on: Client
// receives token-bucket rate limits when a verdict asks to throttle; Runner,
// when non-nil, is paused/resumed when a verdict asks to defer bursts. A
// Victim with a nil Runner simply cannot be deferred (throttle verdicts
// still apply), and vice versa.
type Victim struct {
	Client *lustre.Client
	Runner *workload.Runner
}

// Action is one controller decision, for audit. Actions record the state
// after the decision, so the log replays the controller's exact trajectory.
type Action struct {
	At     sim.Time
	Window int
	// Class is the classifier's verdict on the closed window; Lead the
	// forecaster's predicted time-to-degradation at that point (0 = no
	// forecaster, not warm, or nothing predicted).
	Class int
	Lead  int
	// Engaged is the policy state after the decision (throttle or defer
	// active); Deferred distinguishes a defer engagement from a throttle.
	Engaged  bool
	Deferred bool
	// Switched reports whether this decision changed the actuation state.
	Switched bool
	// Reason is the policy's deterministic explanation.
	Reason string
}

// Controller drives actuation from per-window predictions. It is built on a
// live cluster, runs inside the simulator's event loop (single-goroutine,
// like the Framework and Forecaster it drives), and is deterministic: same
// seed, same decision log.
type Controller struct {
	policy      Policy
	fw          *core.Framework
	victims     []Victim
	throttleBps float64
	tracker     *forecast.Tracker // nil without WithForecaster

	throttled bool
	deferred  bool
	actions   []Action
	mon       *core.LiveMonitor

	mWindows     *obs.Counter
	mEngagements *obs.Counter
	mReleases    *obs.Counter
	mThrottledW  *obs.Counter
	mDeferredW   *obs.Counter
	mBytesDefer  *obs.Counter
	gEngaged     *obs.Gauge
}

// ctrlParams is the pointer-default option state for NewController.
type ctrlParams struct {
	throttleBps *float64
	forecaster  *forecast.Forecaster
	sink        *obs.Sink
}

// ControllerOption tunes NewController.
type ControllerOption func(*ctrlParams)

// WithThrottleBps sets the per-client rate limit applied while a throttle
// verdict is in force (default 10 MB/s). Negative rates are rejected with an
// error wrapping ErrInvalidConfig.
func WithThrottleBps(bps float64) ControllerOption {
	return func(p *ctrlParams) { b := bps; p.throttleBps = &b }
}

// WithForecaster feeds every monitored window through a sliding-history
// tracker over f, so each Observation carries the forecast alongside the
// current-window class — what the proactive and defer policies act on. The
// controller owns f's scratch (single-goroutine); clone before sharing one
// with a serving layer.
func WithForecaster(f *forecast.Forecaster) ControllerOption {
	return func(p *ctrlParams) { p.forecaster = f }
}

// WithSink registers the controller's metrics on s: counters
// mitigate/{windows,engagements,releases,windows_throttled,windows_deferred,
// bytes_deferred} and the mitigate/engaged gauge. Without it a private sink
// is used, so the counters always work.
func WithSink(s *obs.Sink) ControllerOption {
	return func(p *ctrlParams) { p.sink = s }
}

// NewController attaches a policy-driven controller to a live cluster. fw is
// the trained framework judging each window; policy decides; victims are
// actuated on. Wire Record into the protected workload's Runner.OnRecord.
// Invalid options return an error wrapping ErrInvalidConfig.
func NewController(cl *core.Cluster, fw *core.Framework, victims []Victim, windowSize sim.Time, policy Policy, opts ...ControllerOption) (*Controller, error) {
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrInvalidConfig)
	}
	var p ctrlParams
	for _, fn := range opts {
		if fn != nil {
			fn(&p)
		}
	}
	throttleBps := 10e6
	if p.throttleBps != nil {
		throttleBps = *p.throttleBps
	}
	if throttleBps < 0 {
		return nil, fmt.Errorf("%w: negative ThrottleBps %g", ErrInvalidConfig, throttleBps)
	}
	sink := p.sink
	if sink == nil {
		sink = obs.New()
	}
	c := &Controller{
		policy:      policy,
		fw:          fw,
		victims:     victims,
		throttleBps: throttleBps,

		mWindows:     sink.Counter("mitigate", "", "windows"),
		mEngagements: sink.Counter("mitigate", "", "engagements"),
		mReleases:    sink.Counter("mitigate", "", "releases"),
		mThrottledW:  sink.Counter("mitigate", "", "windows_throttled"),
		mDeferredW:   sink.Counter("mitigate", "", "windows_deferred"),
		mBytesDefer:  sink.Counter("mitigate", "", "bytes_deferred"),
		gEngaged:     sink.Gauge("mitigate", "", "engaged"),
	}
	if p.forecaster != nil {
		c.tracker = forecast.NewTracker(p.forecaster)
	}
	c.mon = core.AttachLive(cl, windowSize, func(idx int, mat window.Matrix) {
		c.onWindow(cl.Eng.Now(), idx, mat)
	})
	return c, nil
}

// Record is the client-monitor hook for the protected workload.
func (c *Controller) Record(rec workload.Record) { c.mon.Record(rec) }

// onWindow classifies and forecasts the closed window, asks the policy, and
// actuates the verdict. The tracker is offered the window before predicting,
// so the forecast history includes the window the classifier just judged —
// the same ordering online.Loop uses, keeping decisions comparable.
func (c *Controller) onWindow(now sim.Time, idx int, mat window.Matrix) {
	c.mWindows.Inc()
	class, _ := c.fw.Predict(mat)
	var fcast *forecast.Prediction
	if c.tracker != nil {
		c.tracker.Offer(mat)
		if c.tracker.Ready() {
			if p, err := c.tracker.Predict(); err == nil {
				fcast = p
			}
		}
	}
	v := c.policy.Decide(Observation{At: now, Window: idx, Class: class, Forecast: fcast})
	c.apply(now, idx, class, fcast, v)
}

// decide runs one policy decision outside the monitor path — the
// forecast-free core of onWindow, kept separable so tests can drive the
// actuation state machine directly.
func (c *Controller) decide(now sim.Time, idx, class int) {
	v := c.policy.Decide(Observation{At: now, Window: idx, Class: class})
	c.apply(now, idx, class, nil, v)
}

// apply transitions throttle and defer state to the verdict's.
func (c *Controller) apply(now sim.Time, idx, class int, fcast *forecast.Prediction, v Verdict) {
	switched := false
	if v.Throttle != c.throttled {
		c.throttled = v.Throttle
		switched = true
		bps := 0.0
		if v.Throttle {
			bps = c.throttleBps
		}
		for _, vic := range c.victims {
			if vic.Client != nil {
				vic.Client.SetRateLimit(bps)
			}
		}
	}
	if v.Defer != c.deferred {
		c.deferred = v.Defer
		switched = true
		for _, vic := range c.victims {
			if vic.Runner == nil {
				continue
			}
			if v.Defer {
				vic.Runner.Pause()
			} else {
				c.mBytesDefer.Add(uint64(vic.Runner.HeldBytes()))
				vic.Runner.Resume()
			}
		}
	}
	engaged := c.throttled || c.deferred
	if switched {
		if engaged {
			c.mEngagements.Inc()
		} else {
			c.mReleases.Inc()
		}
	}
	if c.throttled {
		c.mThrottledW.Inc()
	}
	if c.deferred {
		c.mDeferredW.Inc()
	}
	if engaged {
		c.gEngaged.Set(1)
	} else {
		c.gEngaged.Set(0)
	}
	lead := 0
	if fcast != nil {
		lead = fcast.LeadWindows
	}
	c.actions = append(c.actions, Action{
		At: now, Window: idx, Class: class, Lead: lead,
		Engaged: engaged, Deferred: c.deferred, Switched: switched, Reason: v.Reason,
	})
}

// Engaged reports whether any actuation (throttle or defer) is currently
// applied.
func (c *Controller) Engaged() bool { return c.throttled || c.deferred }

// Actions returns the decision log, one entry per monitored window.
func (c *Controller) Actions() []Action { return c.actions }

// Engagements counts idle-to-engaged transitions in the decision log.
func (c *Controller) Engagements() int {
	n := 0
	for _, a := range c.actions {
		if a.Switched && a.Engaged {
			n++
		}
	}
	return n
}

// ThrottledWindows counts windows that closed with the throttle in force.
func (c *Controller) ThrottledWindows() int { return int(c.mThrottledW.Value()) }

// BytesDeferred is the total I/O volume held at pause gates across defer
// engagements (accumulated at each release).
func (c *Controller) BytesDeferred() int64 { return int64(c.mBytesDefer.Value()) }

// Stop detaches the controller and removes any active limits or holds, so
// the victims run free afterwards.
func (c *Controller) Stop() {
	c.mon.Stop()
	if c.throttled {
		c.throttled = false
		for _, vic := range c.victims {
			if vic.Client != nil {
				vic.Client.SetRateLimit(0)
			}
		}
	}
	if c.deferred {
		c.deferred = false
		for _, vic := range c.victims {
			if vic.Runner != nil {
				c.mBytesDefer.Add(uint64(vic.Runner.HeldBytes()))
				vic.Runner.Resume()
			}
		}
	}
	c.gEngaged.Set(0)
}

// Summary renders the decision log compactly.
func (c *Controller) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s: %d windows judged, %d engagements, currently engaged=%v\n",
		c.policy.Name(), len(c.actions), c.Engagements(), c.Engaged())
	return b.String()
}
