package mitigate

import (
	"testing"

	"quanterference/internal/forecast"
)

// obsAt builds an observation with the given class and an optional forecast
// lead (0 = no forecast attached).
func obsAt(class, lead int) Observation {
	o := Observation{Class: class}
	if lead > 0 {
		o.Forecast = &forecast.Prediction{
			Horizons: []int{lead}, Classes: []int{1}, LeadWindows: lead,
		}
	}
	return o
}

// TestHysteresisFlicker pins the engage-then-immediately-clean edge: a hot
// window mid-cooldown restarts the cooldown from scratch, so a flickering
// predictor (hot, clean, hot, clean, ...) never releases.
func TestHysteresisFlicker(t *testing.T) {
	p := NewReactiveThrottle()
	seq := []int{1, 0, 1, 0, 1} // flicker, ending on a hot window
	for w, class := range seq {
		if v := p.Decide(obsAt(class, 0)); !v.Throttle {
			t.Fatalf("window %d (class %d): released mid-flicker: %+v", w, class, v)
		}
	}
	// Two genuinely clean windows release it.
	if v := p.Decide(obsAt(0, 0)); !v.Throttle {
		t.Fatal("released after one clean window")
	}
	if v := p.Decide(obsAt(0, 0)); v.Throttle {
		t.Fatal("still engaged after two clean windows")
	}
}

// TestProactiveEngagesOnForecast pins the lead semantics: an alarm within
// the 4-window lead engages before any hot window arrives, an alarm beyond
// it is ignored until it gets closer, and a nil forecast degrades the policy
// to reactive behavior.
func TestProactiveEngagesOnForecast(t *testing.T) {
	p := NewProactiveThrottle()
	if v := p.Decide(obsAt(0, 6)); v.Throttle {
		t.Fatalf("engaged on an alarm 6 windows out with lead 4: %+v", v)
	}
	if v := p.Decide(obsAt(0, 4)); !v.Throttle {
		t.Fatalf("ignored an alarm 4 windows out with lead 4: %+v", v)
	}
	p = NewProactiveThrottle()
	if v := p.Decide(obsAt(0, 0)); v.Throttle {
		t.Fatal("engaged with no forecast and a clean window")
	}
	if v := p.Decide(obsAt(1, 0)); !v.Throttle {
		t.Fatal("nil-forecast proactive did not degrade to reactive")
	}
}

// TestForecastLeadShorterThanRelease pins that a single-window forecast
// alarm still earns the full cooldown: the engagement outlives the alarm by
// exactly two clean windows, so an alarm (lead 1) shorter than the release
// cooldown must not cut the cooldown short.
func TestForecastLeadShorterThanRelease(t *testing.T) {
	p := NewProactiveThrottle()
	if v := p.Decide(obsAt(0, 1)); !v.Throttle {
		t.Fatal("alarm 1 window out did not engage")
	}
	// The alarm clears immediately; two clean windows are still required.
	if v := p.Decide(obsAt(0, 0)); !v.Throttle {
		t.Fatal("released after 1 clean window, want 2")
	}
	if v := p.Decide(obsAt(0, 0)); v.Throttle {
		t.Fatal("still engaged after 2 clean windows")
	}
}

// TestDeferVerdicts pins that the defer policy asks for defers, never
// throttles, and shares the proactive trigger.
func TestDeferVerdicts(t *testing.T) {
	p := NewDeferBurst()
	v := p.Decide(obsAt(0, 2))
	if !v.Defer || v.Throttle {
		t.Fatalf("forecast alarm: want pure defer, got %+v", v)
	}
	v = p.Decide(obsAt(1, 0))
	if !v.Defer || v.Throttle {
		t.Fatalf("hot window: want pure defer, got %+v", v)
	}
}

// TestPolicyDeterminism replays the same observation sequence through two
// fresh instances of each policy and demands identical verdict sequences —
// the per-policy statement of the package determinism contract.
func TestPolicyDeterminism(t *testing.T) {
	seq := []Observation{
		obsAt(0, 0), obsAt(0, 3), obsAt(1, 1), obsAt(0, 0),
		obsAt(0, 0), obsAt(2, 0), obsAt(0, 4), obsAt(0, 0),
	}
	run := func(p *Policy) []Verdict {
		out := make([]Verdict, len(seq))
		for i, o := range seq {
			out[i] = p.Decide(o)
		}
		return out
	}
	for name, mk := range map[string]func() *Policy{
		"reactive": NewReactiveThrottle, "proactive": NewProactiveThrottle, "defer": NewDeferBurst,
	} {
		v1, v2 := run(mk()), run(mk())
		for j := range v1 {
			if v1[j] != v2[j] {
				t.Fatalf("%s: fresh replays diverged at obs %d: %+v vs %+v", name, j, v1[j], v2[j])
			}
		}
	}
}

// TestPolicyTable pins each policy's verdict and reason, window by window,
// over one mixed stream: hot windows, forecast alarms within and beyond the
// 4-window lead, a forecast that predicts nothing, cooldowns, and a hot/clean
// flicker. Each column is one policy fed the whole stream in order.
func TestPolicyTable(t *testing.T) {
	// lead -1 attaches no forecast; 0 attaches one that predicts no
	// degradation.
	rows := []struct {
		class, lead int
		want        [3]string // reactive, proactive, defer
	}{
		{0, -1, [3]string{"idle clean", "idle clean", "idle clean"}},
		{0, 6, [3]string{"idle clean", "idle clean", "idle clean"}},
		{0, 4, [3]string{"idle clean", "throttle forecast lead 4 <= 4", "defer forecast lead 4 <= 4"}},
		{0, -1, [3]string{"idle clean", "throttle cooldown 1/2", "defer cooldown 1/2"}},
		{0, 0, [3]string{"idle clean", "idle clean", "idle clean"}},
		{1, -1, [3]string{"throttle class 1 >= 1", "throttle class 1 >= 1", "defer class 1 >= 1"}},
		{0, -1, [3]string{"throttle cooldown 1/2", "throttle cooldown 1/2", "defer cooldown 1/2"}},
		{1, -1, [3]string{"throttle class 1 >= 1", "throttle class 1 >= 1", "defer class 1 >= 1"}},
		{0, -1, [3]string{"throttle cooldown 1/2", "throttle cooldown 1/2", "defer cooldown 1/2"}},
		{2, 1, [3]string{"throttle class 2 >= 1", "throttle class 2 >= 1", "defer class 2 >= 1"}},
		{0, 5, [3]string{"throttle cooldown 1/2", "throttle cooldown 1/2", "defer cooldown 1/2"}},
		{0, 2, [3]string{"idle clean", "throttle forecast lead 2 <= 4", "defer forecast lead 2 <= 4"}},
		{0, -1, [3]string{"idle clean", "throttle cooldown 1/2", "defer cooldown 1/2"}},
		{0, 1, [3]string{"idle clean", "throttle forecast lead 1 <= 4", "defer forecast lead 1 <= 4"}},
		{0, -1, [3]string{"idle clean", "throttle cooldown 1/2", "defer cooldown 1/2"}},
		{0, -1, [3]string{"idle clean", "idle clean", "idle clean"}},
		{0, 3, [3]string{"idle clean", "throttle forecast lead 3 <= 4", "defer forecast lead 3 <= 4"}},
		{1, 2, [3]string{"throttle class 1 >= 1", "throttle class 1 >= 1", "defer class 1 >= 1"}},
		{0, -1, [3]string{"throttle cooldown 1/2", "throttle cooldown 1/2", "defer cooldown 1/2"}},
		{0, -1, [3]string{"idle clean", "idle clean", "idle clean"}},
		{0, -1, [3]string{"idle clean", "idle clean", "idle clean"}},
	}
	for col, decide := range tablePolicies(t) {
		for w, r := range rows {
			o := Observation{Class: r.class}
			if r.lead >= 0 {
				o.Forecast = &forecast.Prediction{LeadWindows: r.lead}
			}
			v := decide(o)
			state := "idle"
			switch {
			case v.Throttle && v.Defer:
				state = "throttle+defer"
			case v.Throttle:
				state = "throttle"
			case v.Defer:
				state = "defer"
			}
			if got := state + " " + v.Reason; got != r.want[col] {
				t.Errorf("column %d, window %d: got %q, want %q", col, w, got, r.want[col])
			}
		}
	}
}

// tablePolicies builds the reactive, proactive and defer policies, in
// TestPolicyTable's column order.
func tablePolicies(t *testing.T) []func(Observation) Verdict {
	t.Helper()
	return []func(Observation) Verdict{
		NewReactiveThrottle().Decide, NewProactiveThrottle().Decide, NewDeferBurst().Decide,
	}
}
