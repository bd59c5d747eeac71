package fault

import (
	"strings"
	"testing"

	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

func TestParseKindRoundTrip(t *testing.T) {
	for k := DiskSlow; k <= NetCollapse; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("disk-fast"); err == nil || !strings.Contains(err.Error(), "disk-slow") {
		t.Fatalf("unknown kind error %v should list valid kinds", err)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("disk-slow:ost0:10:5:4")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Kind: DiskSlow, Target: "ost0", Start: 10 * sim.Second,
		Duration: 5 * sim.Second, Severity: 4}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	// String renders back to parseable flag syntax.
	back, err := ParseSpec(spec.String())
	if err != nil || back != spec {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	// Fractional seconds.
	spec, err = ParseSpec("net-collapse:oss1:0.5:1.25:8")
	if err != nil || spec.Start != sim.Seconds(0.5) || spec.Duration != sim.Seconds(1.25) {
		t.Fatalf("fractional: %+v, %v", spec, err)
	}
	// OSTStall's 4-field form: a stall is total, no severity.
	spec, err = ParseSpec("ost-stall:ost1:10:5")
	if err != nil || spec.Kind != OSTStall || spec.Severity != 1 {
		t.Fatalf("4-field stall: %+v, %v", spec, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"too-few-fields", "disk-slow:ost0:10", "kind:target:start:duration"},
		{"too-many-fields", "disk-slow:ost0:10:5:4:9", "kind:target:start:duration"},
		{"unknown-kind", "melt:ost0:10:5:4", "unknown kind"},
		{"bad-start", "disk-slow:ost0:abc:5:4", "bad start"},
		{"bad-duration", "disk-slow:ost0:10:xyz:4", "bad duration"},
		{"bad-severity", "disk-slow:ost0:10:5:huge", "bad severity"},
		{"missing-severity", "disk-slow:ost0:10:5", "needs a severity"},
		{"negative-start", "disk-slow:ost0:-1:5:4", "negative start"},
		{"zero-duration", "disk-slow:ost0:10:0:4", "non-positive duration"},
		{"sub-one-severity", "disk-slow:ost0:10:5:0.5", "severity 0.5 < 1"},
		{"empty-target", "disk-slow::10:5:4", "needs a target"},
		{"nan-severity", "disk-slow:ost0:0:30:NaN", "severity NaN is not a number"},
		{"inf-severity", "disk-slow:ost0:0:30:Inf", "severity +Inf is not a number"},
		{"huge-severity", "disk-slow:ost0:0:30:1e300", "severity 1e+300 is not a number"},
		{"huge-mds-storm", "mds-storm:mdt:0:30:1e300", "severity 1e+300 is not a number"},
		{"huge-net-collapse", "net-collapse:c0:0:30:1e300", "severity 1e+300 is not a number"},
		{"nan-start", "disk-slow:ost0:NaN:30:4", "start NaN is not a number of seconds"},
		{"huge-duration", "disk-slow:ost0:0:1e300:4", "duration 1e300 is not a number of seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpec(tc.in); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ParseSpec(%q) err = %v, want substring %q", tc.in, err, tc.wantSub)
			}
		})
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("disk-slow:ost0:10:5:4, ost-stall:ost1:2:1")
	if err != nil || len(specs) != 2 {
		t.Fatalf("specs = %+v, %v", specs, err)
	}
	if specs, err := ParseSpecs("  "); err != nil || specs != nil {
		t.Fatalf("empty input: %+v, %v", specs, err)
	}
	if _, err := ParseSpecs("disk-slow:ost0:10:5:4,bogus"); err == nil {
		t.Fatal("bad item accepted")
	}
}

func TestValidateMDSStormDefaultsTarget(t *testing.T) {
	s := Spec{Kind: MDSStorm, Duration: sim.Second, Severity: 2}
	if err := s.Validate(); err != nil {
		t.Fatalf("empty target must be valid for mds-storm: %v", err)
	}
}

// fakes record every hook invocation with its engine timestamp.

type hookCall struct {
	at  sim.Time
	arg float64
}

type fakeDisk struct {
	eng   *sim.Engine
	calls []hookCall
}

func (f *fakeDisk) ScaleSlowdown(factor float64) {
	f.calls = append(f.calls, hookCall{f.eng.Now(), factor})
}

type fakeStaller struct {
	eng   *sim.Engine
	calls []hookCall
}

func (f *fakeStaller) StallUntil(t sim.Time) {
	f.calls = append(f.calls, hookCall{f.eng.Now(), float64(t)})
}

type fakeCache struct {
	eng   *sim.Engine
	calls []hookCall
}

func (f *fakeCache) SetCachePressure(factor float64) {
	f.calls = append(f.calls, hookCall{f.eng.Now(), factor})
}

type fakeCPU struct {
	eng   *sim.Engine
	calls []hookCall
}

func (f *fakeCPU) SetOpCPUFactor(factor float64) {
	f.calls = append(f.calls, hookCall{f.eng.Now(), factor})
}

type fakeNet struct {
	eng   *sim.Engine
	calls []map[string]float64
	times []sim.Time
}

func (f *fakeNet) SetBandwidthScale(node string, scale float64) error {
	f.calls = append(f.calls, map[string]float64{node: scale})
	f.times = append(f.times, f.eng.Now())
	return nil
}

func testEndpoints(eng *sim.Engine) (Endpoints, *fakeDisk, *fakeStaller, *fakeCache, *fakeCPU, *fakeNet) {
	d := &fakeDisk{eng: eng}
	st := &fakeStaller{eng: eng}
	ca := &fakeCache{eng: eng}
	cp := &fakeCPU{eng: eng}
	nw := &fakeNet{eng: eng}
	eps := Endpoints{
		Disks:    map[string]DiskSlower{"ost0": d},
		Stalls:   map[string]Staller{"ost0": st},
		Caches:   map[string]CachePressurer{"ost0": ca},
		CPUs:     map[string]CPUScaler{"mdt": cp},
		Net:      nw,
		NetNodes: map[string]bool{"oss0": true},
	}
	return eps, d, st, ca, cp, nw
}

func TestInjectorSchedulesApplyAndRevert(t *testing.T) {
	eng := sim.NewEngine()
	eps, d, st, ca, cp, nw := testEndpoints(eng)
	inj := NewInjector(eng, eps)
	sink := obs.New()
	inj.Instrument(sink)

	err := inj.Inject([]Spec{
		{Kind: DiskSlow, Target: "ost0", Start: 1 * sim.Second, Duration: 2 * sim.Second, Severity: 4},
		{Kind: OSTStall, Target: "ost0", Start: 2 * sim.Second, Duration: 1 * sim.Second, Severity: 1},
		{Kind: OSTCachePressure, Target: "ost0", Start: 0, Duration: 5 * sim.Second, Severity: 8},
		{Kind: MDSStorm, Target: "", Start: 1 * sim.Second, Duration: 1 * sim.Second, Severity: 3},
		{Kind: NetCollapse, Target: "oss0", Start: 3 * sim.Second, Duration: 1 * sim.Second, Severity: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	// Disk: x4 at t=1s, x1/4 at t=3s.
	if len(d.calls) != 2 || d.calls[0] != (hookCall{1 * sim.Second, 4}) ||
		d.calls[1].at != 3*sim.Second || d.calls[1].arg != 0.25 {
		t.Fatalf("disk calls %+v", d.calls)
	}
	// Stall: one self-reverting call at t=2s freezing until t=3s.
	if len(st.calls) != 1 || st.calls[0] != (hookCall{2 * sim.Second, float64(3 * sim.Second)}) {
		t.Fatalf("stall calls %+v", st.calls)
	}
	// Cache: squeeze /8 at t=0, restore 1 at t=5s.
	if len(ca.calls) != 2 || ca.calls[0] != (hookCall{0, 8}) || ca.calls[1] != (hookCall{5 * sim.Second, 1}) {
		t.Fatalf("cache calls %+v", ca.calls)
	}
	// MDS: x3 at t=1s, back to 1 at t=2s (empty target defaults to mdt).
	if len(cp.calls) != 2 || cp.calls[0] != (hookCall{1 * sim.Second, 3}) || cp.calls[1] != (hookCall{2 * sim.Second, 1}) {
		t.Fatalf("cpu calls %+v", cp.calls)
	}
	// Net: scale 0.1 at t=3s, 1 at t=4s.
	if len(nw.calls) != 2 || nw.calls[0]["oss0"] != 0.1 || nw.calls[1]["oss0"] != 1 ||
		nw.times[0] != 3*sim.Second || nw.times[1] != 4*sim.Second {
		t.Fatalf("net calls %+v at %v", nw.calls, nw.times)
	}

	snap := sink.Snapshot()
	if got := snap.CounterTotal("fault", "injected"); got != 5 {
		t.Fatalf("fault/injected = %d, want 5", got)
	}
}

func TestInjectorRejectsUnknownTargetsBeforeScheduling(t *testing.T) {
	eng := sim.NewEngine()
	eps, d, _, _, _, _ := testEndpoints(eng)
	inj := NewInjector(eng, eps)

	cases := []struct {
		name    string
		spec    Spec
		wantSub string
	}{
		{"disk", Spec{Kind: DiskSlow, Target: "ost9", Duration: sim.Second, Severity: 2}, `disk-slow target "ost9"`},
		{"stall", Spec{Kind: OSTStall, Target: "mdt", Duration: sim.Second, Severity: 1}, `ost-stall target "mdt"`},
		{"cache", Spec{Kind: OSTCachePressure, Target: "nope", Duration: sim.Second, Severity: 2}, `ost-cache target "nope"`},
		{"cpu", Spec{Kind: MDSStorm, Target: "ost0", Duration: sim.Second, Severity: 2}, `mds-storm target "ost0"`},
		{"net", Spec{Kind: NetCollapse, Target: "c9", Duration: sim.Second, Severity: 2}, `net-collapse target "c9"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A valid first spec must not be scheduled when a later one fails.
			err := inj.Inject([]Spec{
				{Kind: DiskSlow, Target: "ost0", Start: 0, Duration: sim.Second, Severity: 2},
				tc.spec,
			})
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
	eng.Run()
	if len(d.calls) != 0 {
		t.Fatalf("rejected batches still scheduled the valid spec: %+v", d.calls)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events left scheduled after rejected injections", eng.Pending())
	}
}

func TestInjectorWorksUninstrumented(t *testing.T) {
	eng := sim.NewEngine()
	eps, d, _, _, _, _ := testEndpoints(eng)
	inj := NewInjector(eng, eps) // no Instrument: obs handles stay nil
	err := inj.Inject([]Spec{
		{Kind: DiskSlow, Target: "ost0", Start: 0, Duration: sim.Second, Severity: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(d.calls) != 2 {
		t.Fatalf("uninstrumented injector made %d hook calls, want 2", len(d.calls))
	}
}
