// Package mitigate closes the loop the paper motivates: its conclusion
// positions quantitative interference prediction as the missing input for
// "more effective I/O interference mitigation strategies". The package is a
// policy-driven actuation subsystem: a Controller watches the protected
// application's own window stream (per-client local metrics, DIAL-style —
// no global coordinator), feeds each window through the online classifier
// and, optionally, the forecast sequence head, and hands the resulting
// Observation to its Policy. The Policy's Verdict is then actuated on the
// interfering clients: token-bucket rate limits (NRS-TBF style, the paper's
// reference [13]) or deferring their next bursts until the predicted-hot
// window has passed.
//
// One Policy state machine runs in three modes: reactive (threshold on the
// current window's prediction), proactive (also engages up to 4 windows
// before forecast degradation) and defer (the proactive trigger, but pausing
// the interfering clients' bursts instead of throttling them).
// experiments.MitigationStudy measures each against a no-action baseline
// across a fault × workload scenario matrix.
//
// Determinism contract: the policy is a pure state machine over its
// observation sequence and the Controller runs entirely inside the
// simulator's single-threaded event loop, so same-seed runs produce
// bit-identical decision logs, engagement counts, and measured outcomes.
package mitigate

import (
	"quanterference/internal/core"
	"quanterference/internal/forecast"
	"quanterference/internal/lustre"
	"quanterference/internal/monitor/window"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// ThrottleBps is the per-client rate limit a throttle verdict puts on every
// victim: 10 MB/s.
const ThrottleBps = 10e6

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
	policy  *Policy
	fw      *core.Framework
	victims []Victim
	tracker *forecast.Tracker // nil without a forecaster

	throttled     bool
	deferred      bool
	bytesDeferred int64
	actions       []Action
	mon           *core.LiveMonitor
}

// NewController attaches a policy-driven controller to a live cluster. fw is
// the trained framework judging each window; policy decides; victims are
// actuated on. A non-nil fc feeds every window through a sliding-history
// tracker over it, so each Observation carries the forecast the proactive
// and defer modes act on; the controller then owns fc's scratch, so clone
// one before sharing it with a serving layer. Wire Record into the
// protected workload's Runner.OnRecord.
func NewController(cl *core.Cluster, fw *core.Framework, victims []Victim, windowSize sim.Time, policy *Policy, fc *forecast.Forecaster) *Controller {
	c := &Controller{policy: policy, fw: fw, victims: victims}
	if fc != nil {
		c.tracker = forecast.NewTracker(fc)
	}
	c.mon = core.AttachLive(cl, windowSize, func(idx int, mat window.Matrix) {
		c.onWindow(cl.Eng.Now(), idx, mat)
	})
	return c
}

// Record is the client-monitor hook for the protected workload.
func (c *Controller) Record(rec workload.Record) { c.mon.Record(rec) }

// onWindow classifies and forecasts the closed window, asks the policy, and
// actuates the verdict. The tracker is offered the window before predicting,
// so the forecast history includes the window the classifier just judged —
// the same ordering online.Loop uses, keeping decisions comparable.
func (c *Controller) onWindow(now sim.Time, idx int, mat window.Matrix) {
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
	v := c.policy.Decide(Observation{Class: class, Forecast: fcast})
	switched := c.setThrottle(v.Throttle)
	if c.setDefer(v.Defer) {
		switched = true
	}
	lead := 0
	if fcast != nil {
		lead = fcast.LeadWindows
	}
	c.actions = append(c.actions, Action{
		At: now, Window: idx, Class: class, Lead: lead,
		Engaged: c.Engaged(), Deferred: c.deferred, Switched: switched, Reason: v.Reason,
	})
}

// setThrottle puts the rate limit on every victim client, or lifts it, and
// reports whether that changed anything.
func (c *Controller) setThrottle(on bool) bool {
	if on == c.throttled {
		return false
	}
	c.throttled = on
	bps := 0.0
	if on {
		bps = ThrottleBps
	}
	for _, vic := range c.victims {
		if vic.Client != nil {
			vic.Client.SetRateLimit(bps)
		}
	}
	return true
}

// setDefer pauses every victim runner, or resumes it and counts the bytes it
// held, and reports whether that changed anything.
func (c *Controller) setDefer(on bool) bool {
	if on == c.deferred {
		return false
	}
	c.deferred = on
	for _, vic := range c.victims {
		if vic.Runner == nil {
			continue
		}
		if on {
			vic.Runner.Pause()
		} else {
			c.bytesDeferred += vic.Runner.HeldBytes()
			vic.Runner.Resume()
		}
	}
	return true
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
func (c *Controller) ThrottledWindows() int {
	n := 0
	for _, a := range c.actions {
		if a.Engaged && !a.Deferred {
			n++
		}
	}
	return n
}

// BytesDeferred is the total I/O volume held at pause gates across defer
// engagements (accumulated at each release).
func (c *Controller) BytesDeferred() int64 { return c.bytesDeferred }

// Stop detaches the controller and removes any active limits or holds, so
// the victims run free afterwards. No window is judged after Stop, not even
// one closing at the same instant.
func (c *Controller) Stop() {
	c.mon.Stop()
	c.setThrottle(false)
	c.setDefer(false)
}
