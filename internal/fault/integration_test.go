// Integration tests exercising fault injection through the full stack: the
// core scenario runner, the lustre client retry path, and the shared
// observability sink. Lives in an external test package so it can import
// core (which imports fault) without a cycle.
package fault_test

import (
	"errors"
	"reflect"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/fault"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

func faultedScenario() core.Scenario {
	return core.Scenario{
		Target: core.TargetSpec{
			Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/tgt", Ranks: 2, EasyFileBytes: 64 << 20}),
			Nodes: []string{"c0"},
			Ranks: 2,
		},
		RPCTimeout: 250 * sim.Millisecond,
		Faults: []fault.Spec{
			{Kind: fault.DiskSlow, Target: "ost0", Start: sim.Second, Duration: 3 * sim.Second, Severity: 6},
			{Kind: fault.OSTStall, Target: "ost1", Start: 2 * sim.Second, Duration: 2 * sim.Second, Severity: 1},
			{Kind: fault.OSTCachePressure, Target: "ost2", Start: 0, Duration: 4 * sim.Second, Severity: 16},
			{Kind: fault.MDSStorm, Target: "mdt", Start: 0, Duration: 2 * sim.Second, Severity: 5},
			{Kind: fault.NetCollapse, Target: "oss0", Start: sim.Second, Duration: 2 * sim.Second, Severity: 20},
		},
	}
}

// TestFaultedRunDeterminism encodes the package's core contract: faults are
// part of the experiment definition, so two runs of the same scenario —
// retries, backoff jitter, and all — are byte-identical.
func TestFaultedRunDeterminism(t *testing.T) {
	a, err := core.RunE(faultedScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunE(faultedScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Finished != b.Finished {
		t.Fatalf("runs diverged: %v/%v vs %v/%v", a.Duration, a.Finished, b.Duration, b.Finished)
	}
	if len(a.Records) == 0 {
		t.Fatal("faulted run produced no records")
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("same scenario and fault specs produced different record streams")
	}
	if got := a.Stats.CounterTotal("fault", "injected"); got != 5 {
		t.Fatalf("fault/injected = %d, want 5", got)
	}
}

// TestFaultsActuallyDegrade guards against the injector silently becoming a
// no-op: the faulted run must be slower than the identical healthy run.
func TestFaultsActuallyDegrade(t *testing.T) {
	healthy := faultedScenario()
	healthy.Faults = nil
	healthy.RPCTimeout = 0
	h, err := core.RunE(healthy)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.RunE(faultedScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Finished || !f.Finished {
		t.Fatalf("finished: healthy=%v faulted=%v", h.Finished, f.Finished)
	}
	if f.Duration <= h.Duration {
		t.Fatalf("faults did not slow the run: healthy %v, faulted %v", h.Duration, f.Duration)
	}
}

// TestClientRetriesUnderFaults drives the degraded-mode client path: with a
// tight RPC timeout and a hard disk slowdown, clients must time out, back
// off, resend, and still finish — with the retry counters visible in obs.
func TestClientRetriesUnderFaults(t *testing.T) {
	s := faultedScenario()
	s.RPCTimeout = 50 * sim.Millisecond
	s.Faults = []fault.Spec{
		{Kind: fault.DiskSlow, Target: "ost0", Start: 0, Duration: 30 * sim.Second, Severity: 40},
		{Kind: fault.DiskSlow, Target: "ost1", Start: 0, Duration: 30 * sim.Second, Severity: 40},
	}
	res, err := core.RunE(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("run wedged: the final RPC attempt must ride to completion without a timeout")
	}
	timeouts := res.Stats.CounterTotal("client", "timeouts")
	retries := res.Stats.CounterTotal("client", "retries")
	degraded := res.Stats.CounterTotal("client", "degraded_ops")
	if timeouts == 0 || retries == 0 {
		t.Fatalf("no degraded-mode activity: timeouts=%d retries=%d", timeouts, retries)
	}
	if retries > timeouts {
		t.Fatalf("retries=%d > timeouts=%d: every resend needs a preceding timeout", retries, timeouts)
	}
	if degraded == 0 {
		t.Fatalf("degraded_ops=0 despite %d retries", retries)
	}
}

// TestCollectSkipsFaultedVariant is the acceptance scenario for graceful
// degradation: one variant's cluster is so degraded its target cannot finish
// within MaxTime, yet CollectDatasetE completes, reporting the skip.
func TestCollectSkipsFaultedVariant(t *testing.T) {
	base := core.Scenario{
		Target: core.TargetSpec{
			Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/tgt", Ranks: 2, EasyFileBytes: 64 << 20}),
			Nodes: []string{"c0"},
			Ranks: 2,
		},
		MaxTime: 20 * sim.Second,
	}
	interferes := func(dir string) []core.InterferenceSpec {
		return []core.InterferenceSpec{{
			Gen:   io500.New(io500.IorEasyRead, io500.Params{Dir: dir, Ranks: 2, EasyFileBytes: 16 << 20}),
			Nodes: []string{"c1"},
			Ranks: 2,
		}}
	}
	variants := []core.Variant{
		{Name: "healthy", Interference: interferes("/bg0")},
		{Name: "doomed", Interference: []core.InterferenceSpec{{
			// Invalid spec: fails validation inside the variant's RunE.
			Gen: nil, Nodes: []string{"c1"}, Ranks: 1,
		}}},
		{Name: "also-healthy", Interference: interferes("/bg1")},
	}
	var report core.CollectReport
	ds, err := core.CollectDatasetE(base, variants, core.CollectorConfig{},
		core.WithCollectReport(&report))
	if err != nil {
		t.Fatalf("collection aborted instead of skipping the doomed variant: %v", err)
	}
	if ds.Len() == 0 {
		t.Fatal("no samples from the healthy variants")
	}
	if report.Variants != 3 || report.Completed != 2 || len(report.Skipped) != 1 {
		t.Fatalf("report = %+v, want 2/3 completed with 1 skip", report)
	}
	sk := report.Skipped[0]
	if sk.Index != 1 || sk.Name != "doomed" {
		t.Fatalf("skipped = %+v, want the doomed variant at index 1", sk)
	}
	if !errors.Is(sk.Err, core.ErrInvalidScenario) {
		t.Fatalf("skip error = %v, want ErrInvalidScenario", sk.Err)
	}
	if report.VariantSamples != ds.Len() {
		t.Fatalf("report counts %d variant samples, dataset has %d", report.VariantSamples, ds.Len())
	}
}

// TestAllVariantsFailed: when every variant fails the collection must say so
// rather than return an interference-free dataset.
func TestAllVariantsFailed(t *testing.T) {
	base := core.Scenario{
		Target: core.TargetSpec{
			Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/tgt", Ranks: 1, EasyFileBytes: 16 << 20}),
			Nodes: []string{"c0"},
			Ranks: 1,
		},
	}
	bad := core.Variant{Interference: []core.InterferenceSpec{{Gen: nil}}}
	var report core.CollectReport
	ds, err := core.CollectDatasetE(base, []core.Variant{bad, bad}, core.CollectorConfig{},
		core.WithCollectReport(&report))
	if ds != nil || !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("CollectDatasetE = %v, %v; want nil, ErrAllVariantsFailed", ds, err)
	}
	if report.Completed != 0 || len(report.Skipped) != 2 {
		t.Fatalf("report = %+v", report)
	}
}

// TestSharedSinkUnderFaultedParallelRuns runs faulted variant collections on
// one shared sink; under -race this verifies the sink and the injector's
// counters stay race-free across the par.MapE fan-out.
func TestSharedSinkUnderFaultedParallelRuns(t *testing.T) {
	base := faultedScenario()
	base.MaxTime = 60 * sim.Second
	interferes := func(dir string) []core.InterferenceSpec {
		return []core.InterferenceSpec{{
			Gen:   io500.New(io500.IorEasyRead, io500.Params{Dir: dir, Ranks: 2, EasyFileBytes: 16 << 20}),
			Nodes: []string{"c1", "c2"},
			Ranks: 2,
		}}
	}
	variants := []core.Variant{
		{Name: "v0", Interference: interferes("/bg0")},
		{Name: "v1", Interference: interferes("/bg1")},
		{Name: "v2", Interference: interferes("/bg2")},
		{Name: "v3", Interference: interferes("/bg3")},
	}
	sink := obs.New()
	var report core.CollectReport
	_, err := core.CollectDatasetE(base, variants, core.CollectorConfig{},
		core.WithSink(sink), core.WithCollectReport(&report))
	if err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	// The baseline run and every completed variant run each injected the
	// scenario's full episode list.
	want := uint64((1 + report.Completed) * len(base.Faults))
	if got := snap.CounterTotal("fault", "injected"); got != want {
		t.Fatalf("fault/injected = %d across runs, want %d (%d completed variants)",
			got, want, report.Completed)
	}
}

// tinyFaultScenario is the 2-rank IOR-easy-write target the parsed-spec
// checks run, capped at a minute of simulated time.
func tinyFaultScenario(specs []fault.Spec) core.Scenario {
	s := faultedScenario()
	s.Faults = specs
	s.MaxTime = 60 * sim.Second
	return s
}

// TestMaxSeverityRuns: at the largest severity Validate accepts, every kind
// — and two stacked disk-slow episodes on one disk — runs to completion or
// to MaxTime with every scaled time inside sim.Time.
func TestMaxSeverityRuns(t *testing.T) {
	for _, list := range []string{
		"disk-slow:ost0:0:30:1e6",
		"disk-slow:ost0:0:30:1e6,disk-slow:ost0:0:30:1e6,disk-slow:ost0:0:30:1e6",
		"ost-cache:ost0:0:30:1e6",
		"mds-storm:mdt:0:30:1e6",
		"net-collapse:c0:0:30:1e6",
	} {
		t.Run(list, func(t *testing.T) {
			specs, err := fault.ParseSpecs(list)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunE(tinyFaultScenario(specs))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Finished && res.Duration != 60*sim.Second {
				t.Fatalf("run stopped at %v without finishing", res.Duration)
			}
		})
	}
}

// FuzzParseSpecs: any spec list ParseSpecs accepts runs the tiny scenario to
// completion or to MaxTime without panicking; an injection error (a target
// the cluster lacks) is fine. Run with make fuzz.
func FuzzParseSpecs(f *testing.F) {
	for _, seed := range []string{
		"disk-slow:ost0:1:3:6",
		"ost-stall:ost1:2:2,ost-cache:ost2:0:4:16",
		"mds-storm:mdt:0:2:5,net-collapse:oss0:1:2:20",
		"disk-slow:ost0:0:30:1e6,disk-slow:ost0:0:30:1e6",
		"net-collapse:c0:0:30:1e6",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, list string) {
		specs, err := fault.ParseSpecs(list)
		if err != nil {
			return
		}
		res, err := core.RunE(tinyFaultScenario(specs))
		if err != nil {
			return
		}
		if !res.Finished && res.Duration != 60*sim.Second {
			t.Fatalf("%q: run stopped at %v without finishing", list, res.Duration)
		}
	})
}
