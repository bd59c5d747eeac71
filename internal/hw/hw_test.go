package hw

import (
	"encoding/json"
	"errors"
	"testing"

	"quanterference/internal/sim"
)

// TestJSONRoundTrip serializes every named profile and checks the decoded
// value is identical — Profile is the unit of persistence for scenario
// configs and dataset headers.
func TestJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		var got Profile
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", name, err)
		}
		if got != p {
			t.Errorf("%s: round trip changed profile:\n  in  %+v\n  out %+v", name, p, got)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, p.Name)
		}
		if p.IsZero() {
			t.Errorf("ByName(%q) returned the zero profile", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("named profile %s invalid: %v", name, err)
		}
	}
	if _, err := ByName("quantum"); !errors.Is(err, ErrUnknownProfile) {
		t.Errorf("ByName(quantum) = %v, want ErrUnknownProfile", err)
	}
	if _, err := ByName(""); !errors.Is(err, ErrUnknownProfile) {
		t.Errorf("ByName(\"\") = %v, want ErrUnknownProfile", err)
	}
}

// TestPaperProfileOnlyNamed pins the guarantee the golden-trace tests rely
// on: PaperProfile carries no overrides, just the name.
func TestPaperProfileOnlyNamed(t *testing.T) {
	p := PaperProfile()
	p.Name = ""
	if !p.IsZero() {
		t.Fatalf("PaperProfile carries overrides beyond its name: %+v", PaperProfile())
	}
}

func TestIsZeroAndDisplayName(t *testing.T) {
	var z Profile
	if !z.IsZero() {
		t.Error("zero profile: IsZero() = false")
	}
	if z.DisplayName() != "custom" {
		t.Errorf("zero profile DisplayName = %q, want custom", z.DisplayName())
	}
	if PaperProfile().IsZero() {
		t.Error("PaperProfile: IsZero() = true")
	}
	if got := NVMeProfile().DisplayName(); got != "nvme" {
		t.Errorf("NVMeProfile DisplayName = %q", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Profile{
		{Net: NetConfig{NICBps: -1}},
		{Net: NetConfig{Latency: -sim.Microsecond}},
		{BB: BurstBufferConfig{Enabled: true, CapacityBytes: -1}},
		{BB: BurstBufferConfig{IngestBps: -2e9}},
	}
	bad = append(bad, func() Profile {
		p := NVMeProfile()
		p.Disk.FlatAccess = -sim.Microsecond
		return p
	}())
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d (%+v): Validate() = nil", i, p)
		}
	}
	if err := (Profile{}).Validate(); err != nil {
		t.Errorf("zero profile: Validate() = %v", err)
	}
}
