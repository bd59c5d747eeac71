package core

import (
	"errors"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/hw"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// TestZeroScenarioGetsPaperProfile pins the default: applyDefaults resolves
// a zero Hardware field to the named paper profile (all-zero overrides).
func TestZeroScenarioGetsPaperProfile(t *testing.T) {
	s := Scenario{Target: smallTarget()}
	s.applyDefaults()
	if s.Hardware != hw.PaperProfile() {
		t.Fatalf("zero scenario resolved to %+v", s.Hardware)
	}
}

// TestInvalidProfileRejected checks validation surfaces profile errors as
// ErrInvalidScenario instead of a mid-run panic.
func TestInvalidProfileRejected(t *testing.T) {
	s := Scenario{Target: smallTarget()}
	s.Hardware.Name = "broken"
	s.Hardware.Net.NICBps = -1
	if _, err := RunE(s); !errors.Is(err, ErrInvalidScenario) {
		t.Fatalf("invalid profile: err = %v, want ErrInvalidScenario", err)
	}
}

// TestBurstBufferProfileAbsorbsWrites checks the burst-buffer profile routes
// writes through a node-local buffer: the write-heavy target's client-side
// latency drops relative to the paper testbed under identical contention.
// The buffered run's exact duration and record count pin the routing, which
// the burst fits entirely.
func TestBurstBufferProfileAbsorbsWrites(t *testing.T) {
	run := func(p hw.Profile) *RunResult {
		res, err := RunE(Scenario{Target: smallTarget(), Hardware: p})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Finished {
			t.Fatal("run truncated")
		}
		return res
	}
	paper, buffered := run(hw.PaperProfile()).Duration, run(hw.BurstBufferProfile())
	t.Logf("paper %.2fs, burst buffer %.2fs", sim.ToSeconds(paper), sim.ToSeconds(buffered.Duration))
	if buffered.Duration >= paper {
		t.Fatalf("burst buffer did not speed up the writer: paper %v, bb %v", paper, buffered.Duration)
	}
	if buffered.Duration != 34_418_260 || len(buffered.Records) != 132 {
		t.Fatalf("buffered run took %d ns with %d records, want 34418260 ns and 132",
			int64(buffered.Duration), len(buffered.Records))
	}
}

// TestCollectDatasetRecordsProfile checks the dataset header carries the
// base scenario's profile name through collection and defaults to paper.
func TestCollectDatasetRecordsProfile(t *testing.T) {
	base := Scenario{
		Target: TargetSpec{
			Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/p", Ranks: 2, EasyFileBytes: 4 << 20}),
			Nodes: []string{"c0"},
			Ranks: 2,
		},
	}
	nvme := base
	nvme.Hardware = hw.NVMeProfile()
	ds, err := CollectDatasetE(nvme, nil, CollectorConfig{IncludeBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Profile != "nvme" {
		t.Errorf("dataset profile = %q, want nvme", ds.Profile)
	}

	ds, err = CollectDatasetE(base, nil, CollectorConfig{IncludeBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Profile != "paper" {
		t.Errorf("default dataset profile = %q, want paper", ds.Profile)
	}
}

// TestDatasetProfileRoundTrip checks Save/Load and Merge semantics for the
// new header field.
func TestDatasetProfileRoundTrip(t *testing.T) {
	a := dataset.New([]string{"f"}, 1, 2)
	a.Profile = "nvme"
	path := t.TempDir() + "/ds.json"
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := dataset.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile != "nvme" {
		t.Errorf("loaded profile = %q, want nvme", got.Profile)
	}

	b := dataset.New([]string{"f"}, 1, 2)
	b.Profile = "nvme"
	a.Merge(b)
	if a.Profile != "nvme" {
		t.Errorf("same-profile merge changed profile to %q", a.Profile)
	}
	c := dataset.New([]string{"f"}, 1, 2)
	c.Profile = "paper"
	a.Merge(c)
	if a.Profile != "mixed" {
		t.Errorf("cross-profile merge: profile = %q, want mixed", a.Profile)
	}
}
