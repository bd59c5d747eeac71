package mitigate

import (
	"errors"
	"testing"

	"quanterference/internal/forecast"
)

// obsAt builds an observation with the given class and an optional forecast
// lead (0 = no forecast attached).
func obsAt(window, class, lead int) Observation {
	o := Observation{Window: window, Class: class}
	if lead > 0 {
		o.Forecast = &forecast.Prediction{
			Horizons: []int{lead}, Classes: []int{1}, LeadWindows: lead,
		}
	}
	return o
}

// TestPolicyOptionValidation pins the typed-error contract of the option
// surface: negative engage classes (0 already engages always), non-positive
// release windows, and non-positive leads are all rejected with
// ErrInvalidConfig.
func TestPolicyOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []PolicyOption
	}{
		{"negative-engage-class", []PolicyOption{WithEngageClass(-1)}},
		{"zero-release", []PolicyOption{WithReleaseAfter(0)}},
		{"negative-release", []PolicyOption{WithReleaseAfter(-2)}},
		{"zero-lead", []PolicyOption{WithLead(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReactiveThrottle(tc.opts...); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("reactive: err %v does not match ErrInvalidConfig", err)
			}
			if _, err := NewProactiveThrottle(tc.opts...); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("proactive: err %v does not match ErrInvalidConfig", err)
			}
			if _, err := NewDeferBurst(tc.opts...); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("defer: err %v does not match ErrInvalidConfig", err)
			}
		})
	}
}

// TestExplicitZeroEngageClass is the regression the option migration fixes:
// WithEngageClass(0) must mean "engage on every prediction" literally, while
// omitting the option keeps the default threshold of 1 — distinguishable
// without any sentinel.
func TestExplicitZeroEngageClass(t *testing.T) {
	always, err := NewReactiveThrottle(WithEngageClass(0))
	if err != nil {
		t.Fatal(err)
	}
	if v := always.Decide(obsAt(0, 0, 0)); !v.Throttle {
		t.Fatalf("WithEngageClass(0) ignored a class-0 window: %+v", v)
	}
	def, err := NewReactiveThrottle()
	if err != nil {
		t.Fatal(err)
	}
	if v := def.Decide(obsAt(0, 0, 0)); v.Throttle {
		t.Fatalf("default policy engaged on a clean window: %+v", v)
	}
	if v := def.Decide(obsAt(1, 1, 0)); !v.Throttle {
		t.Fatalf("default policy ignored a class-1 window: %+v", v)
	}
}

// TestHysteresisFlicker pins the engage-then-immediately-clean edge: a hot
// window mid-cooldown restarts the cooldown from scratch, so a flickering
// predictor (hot, clean, hot, clean, ...) with ReleaseAfter 2 never releases.
func TestHysteresisFlicker(t *testing.T) {
	p, err := NewReactiveThrottle(WithReleaseAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 0, 1, 0, 1} // flicker, ending on a hot window
	for w, class := range seq {
		if v := p.Decide(obsAt(w, class, 0)); !v.Throttle {
			t.Fatalf("window %d (class %d): released mid-flicker: %+v", w, class, v)
		}
	}
	// Two genuinely clean windows release it.
	if v := p.Decide(obsAt(5, 0, 0)); !v.Throttle {
		t.Fatal("released after one clean window")
	}
	if v := p.Decide(obsAt(6, 0, 0)); v.Throttle {
		t.Fatal("still engaged after two clean windows")
	}
}

// TestProactiveEngagesOnForecast pins the lead semantics: an alarm within
// Lead windows engages before any hot window arrives, an alarm beyond Lead
// is ignored until it gets closer, and a nil forecast degrades the policy to
// reactive behavior.
func TestProactiveEngagesOnForecast(t *testing.T) {
	p, err := NewProactiveThrottle(WithLead(2))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Decide(obsAt(0, 0, 4)); v.Throttle {
		t.Fatalf("engaged on an alarm 4 windows out with lead 2: %+v", v)
	}
	if v := p.Decide(obsAt(1, 0, 2)); !v.Throttle {
		t.Fatalf("ignored an alarm 2 windows out with lead 2: %+v", v)
	}
	p.Reset()
	if v := p.Decide(obsAt(0, 0, 0)); v.Throttle {
		t.Fatal("engaged with no forecast and a clean window")
	}
	if v := p.Decide(obsAt(1, 1, 0)); !v.Throttle {
		t.Fatal("nil-forecast proactive did not degrade to reactive")
	}
}

// TestForecastLeadShorterThanRelease pins the interaction the issue calls
// out: with ReleaseAfter 3 and a single-window forecast alarm, the
// engagement outlives the alarm by exactly ReleaseAfter clean windows — the
// alarm (lead 1) being shorter than the release cooldown must not cut the
// cooldown short.
func TestForecastLeadShorterThanRelease(t *testing.T) {
	p, err := NewProactiveThrottle(WithLead(4), WithReleaseAfter(3))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Decide(obsAt(0, 0, 1)); !v.Throttle {
		t.Fatal("alarm 1 window out did not engage")
	}
	// The alarm clears immediately; three clean windows are still required.
	for w := 1; w <= 2; w++ {
		if v := p.Decide(obsAt(w, 0, 0)); !v.Throttle {
			t.Fatalf("window %d: released after %d clean window(s), want 3", w, w)
		}
	}
	if v := p.Decide(obsAt(3, 0, 0)); v.Throttle {
		t.Fatal("still engaged after 3 clean windows")
	}
}

// TestEngageAlwaysWithProactive pins the engage-always × proactive
// interaction: an engage class of 0 makes every window hot, so the forecast can never be the deciding signal
// and the policy is permanently engaged — deliberately, not by accident.
func TestEngageAlwaysWithProactive(t *testing.T) {
	p, err := NewProactiveThrottle(WithEngageClass(0), WithLead(1))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		v := p.Decide(obsAt(w, 0, 0))
		if !v.Throttle {
			t.Fatalf("window %d: engage-class-0 proactive released: %+v", w, v)
		}
		if v.Reason != "class 0 >= 0" {
			t.Fatalf("window %d: reason %q, want the class trigger to dominate", w, v.Reason)
		}
	}
}

// TestDeferVerdicts pins that DeferBurst asks for defers, never throttles,
// and shares the proactive trigger.
func TestDeferVerdicts(t *testing.T) {
	p, err := NewDeferBurst(WithLead(2))
	if err != nil {
		t.Fatal(err)
	}
	v := p.Decide(obsAt(0, 0, 2))
	if !v.Defer || v.Throttle {
		t.Fatalf("forecast alarm: want pure defer, got %+v", v)
	}
	if !v.Engaged() {
		t.Fatal("defer verdict not Engaged()")
	}
	v = p.Decide(obsAt(1, 1, 0))
	if !v.Defer || v.Throttle {
		t.Fatalf("hot window: want pure defer, got %+v", v)
	}
}

// TestPolicyDeterminism replays the same observation sequence through fresh
// and Reset policies and demands identical verdict sequences — the
// per-policy statement of the package determinism contract.
func TestPolicyDeterminism(t *testing.T) {
	seq := []Observation{
		obsAt(0, 0, 0), obsAt(1, 0, 3), obsAt(2, 1, 1), obsAt(3, 0, 0),
		obsAt(4, 0, 0), obsAt(5, 2, 0), obsAt(6, 0, 4), obsAt(7, 0, 0),
	}
	mk := func() []Policy {
		r, _ := NewReactiveThrottle()
		p, _ := NewProactiveThrottle(WithLead(3))
		d, _ := NewDeferBurst(WithLead(3))
		return []Policy{r, p, d}
	}
	run := func(p Policy) []Verdict {
		out := make([]Verdict, len(seq))
		for i, o := range seq {
			out[i] = p.Decide(o)
		}
		return out
	}
	fresh1, fresh2 := mk(), mk()
	for i := range fresh1 {
		v1, v2 := run(fresh1[i]), run(fresh2[i])
		for j := range v1 {
			if v1[j] != v2[j] {
				t.Fatalf("%s: fresh replays diverged at obs %d: %+v vs %+v",
					fresh1[i].Name(), j, v1[j], v2[j])
			}
		}
		fresh1[i].Reset()
		v3 := run(fresh1[i])
		for j := range v1 {
			if v1[j] != v3[j] {
				t.Fatalf("%s: Reset replay diverged at obs %d: %+v vs %+v",
					fresh1[i].Name(), j, v1[j], v3[j])
			}
		}
	}
}
