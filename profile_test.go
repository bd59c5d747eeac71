// Hardware-profile regression tests: the paper profile must be bit-identical
// to the pre-profile behaviour (pinned by the same golden as
// TestGoldenTrace), every named profile must be deterministic under a fixed
// seed, and the non-paper profiles must actually change simulated behaviour.
package quanterference_test

import (
	"errors"
	"testing"

	quant "quanterference"
)

// TestGoldenTracePaperProfile pins the tentpole API guarantee: a scenario
// explicitly carrying PaperProfile produces the same byte-identical DXT trace
// as the zero-value scenario did before hardware profiles existed.
func TestGoldenTracePaperProfile(t *testing.T) {
	s := goldenScenario()
	s.Hardware = quant.PaperProfile()
	res, err := quant.RunE(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("golden run truncated")
	}
	goldenCompare(t, "golden_run.dxt", encodeTrace(res))
}

// TestProfileDeterminism runs the golden scenario twice on every named
// profile: same seed + same profile must reproduce the trace byte for byte.
func TestProfileDeterminism(t *testing.T) {
	for _, name := range quant.ProfileNames() {
		t.Run(name, func(t *testing.T) {
			p, err := quant.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func() string {
				s := goldenScenario()
				s.Hardware = p
				res, err := quant.RunE(s)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Finished {
					t.Fatalf("profile %s: run truncated", name)
				}
				return encodeTrace(res)
			}
			if run() != run() {
				t.Fatalf("profile %s: two identical runs diverged", name)
			}
		})
	}
}

// TestProfilesChangeBehaviour checks the non-paper profiles are not no-ops:
// each must produce a trace different from the paper testbed's.
func TestProfilesChangeBehaviour(t *testing.T) {
	trace := func(name string) string {
		p, err := quant.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := goldenScenario()
		s.Hardware = p
		res, err := quant.RunE(s)
		if err != nil {
			t.Fatal(err)
		}
		return encodeTrace(res)
	}
	paper := trace("paper")
	for _, name := range []string{"nvme", "fastnic", "burstbuffer"} {
		if trace(name) == paper {
			t.Errorf("profile %s produced the paper testbed's exact trace", name)
		}
	}
}

// TestUnknownProfile checks the typed lookup error reaches the facade.
func TestUnknownProfile(t *testing.T) {
	if _, err := quant.ProfileByName("hdd-raid"); !errors.Is(err, quant.ErrUnknownProfile) {
		t.Fatalf("ProfileByName(hdd-raid) = %v, want ErrUnknownProfile", err)
	}
}

// TestGoldenTraceProfiles pins every non-paper named profile to a
// byte-identical DXT trace of the golden scenario, the way
// TestGoldenTracePaperProfile pins the paper testbed. It loops over
// ProfileNames, so a profile added to the registry fails here until its
// golden (testdata/golden_run_<name>.dxt) is committed.
func TestGoldenTraceProfiles(t *testing.T) {
	for _, name := range quant.ProfileNames() {
		if name == "paper" {
			continue // pinned by TestGoldenTracePaperProfile
		}
		t.Run(name, func(t *testing.T) {
			p, err := quant.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := goldenScenario()
			s.Hardware = p
			res, err := quant.RunE(s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Finished {
				t.Fatalf("profile %s: golden run truncated", name)
			}
			goldenCompare(t, "golden_run_"+name+".dxt", encodeTrace(res))
		})
	}
}
