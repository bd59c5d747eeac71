// Package hw defines first-class hardware profiles: serializable bundles of
// the simulator's device-level parameters — disk geometry/latency model,
// per-node NIC bandwidth and fabric latency, and optional node-local burst
// buffers — that select which storage subsystem a Scenario simulates.
// Server-side costs (MDS op CPU, OSS op CPU, the OST write-back cache and
// the MDS inode cache) are not part of a profile: no subsystem varies them,
// so they are internal/lustre constants at the paper testbed's values.
//
// A Profile is the only description of simulated hardware. core.NewCluster
// builds every cluster from one: lustre.New reads its Disk and Net.NICBps
// sections, the network its Net.Latency, and bb.NewTier its BB section.
// The package imports only sim and disk, so every layer can take the
// profile's own structs.
//
// The zero Profile (and the named PaperProfile) reproduces the paper's
// testbed bit-for-bit: 7200 RPM SATA disks, 1 GB/s NICs, no burst buffer.
// The other named profiles model alternative subsystems in the spirit of
// Xu et al. ("ML-based Modeling to Predict I/O Performance on Different
// Storage Sub-systems"): NVMe-class flat-latency devices, a 10 GB/s
// fabric, and burst-buffer tiering. Cross-profile model transfer lives in
// internal/experiments.
package hw

import (
	"errors"
	"fmt"

	"quanterference/internal/disk"
	"quanterference/internal/sim"
)

// NetConfig is the profile's fabric description.
type NetConfig struct {
	// NICBps is the per-direction NIC bandwidth in bytes/second of every
	// node in the cluster. 0 keeps the paper's 1 GB/s (lustre.PaperNICBps).
	NICBps float64 `json:"nic_bps,omitempty"`
	// Latency is the fixed one-way message latency. 0 keeps the network
	// default (100 µs).
	Latency sim.Time `json:"latency_ns,omitempty"`
}

// BurstBufferConfig attaches a node-local fast tier in front of every
// client: writes complete at local ingest speed and drain to the PFS
// asynchronously (internal/bb).
type BurstBufferConfig struct {
	// Enabled turns the tier on; the remaining fields then size it
	// (0 = internal/bb defaults: 256 MiB, 2 GB/s, 4 drain RPCs).
	Enabled          bool    `json:"enabled,omitempty"`
	CapacityBytes    int64   `json:"capacity_bytes,omitempty"`
	IngestBps        float64 `json:"ingest_bps,omitempty"`
	DrainConcurrency int     `json:"drain_concurrency,omitempty"`
}

// Profile is one storage subsystem: every device-level knob the simulator
// exposes, bundled as a value that serializes to JSON and threads through
// Scenario.Hardware. Profile is comparable; the zero value means "the
// paper's testbed" everywhere.
//
// Per-field semantics are "0 keeps the layer's own default", so a profile
// only has to state what it changes. Disk.Seed is ignored: the file system
// derives every storage target's disk seed from its own fixed seed.
type Profile struct {
	// Name identifies the profile in datasets, reports, and CLIs. Named
	// constructors fill it; hand-built profiles may leave it "" (rendered
	// as "custom" in reports).
	Name string `json:"name"`
	// Disk is the storage-device model shared by every OST and the MDT.
	// The zero value is the paper's 1 TB 7200 RPM SATA drive; set
	// FlatAccess for NVMe-class flat-latency devices.
	Disk disk.Config `json:"disk"`
	// Net is the cluster fabric.
	Net NetConfig `json:"net"`
	// BB optionally fronts every client with a node-local burst buffer.
	BB BurstBufferConfig `json:"burst_buffer"`
}

// IsZero reports whether the profile is the zero value (no name, no
// overrides) — the condition under which Scenario defaulting substitutes
// PaperProfile.
func (p Profile) IsZero() bool { return p == Profile{} }

// DisplayName returns Name, or "custom" for unnamed hand-built profiles.
func (p Profile) DisplayName() string {
	if p.Name == "" {
		return "custom"
	}
	return p.Name
}

// Validate rejects parameter values the simulator layers would otherwise
// panic on mid-run. The zero profile is always valid.
func (p Profile) Validate() error {
	if p.Disk.TotalSectors < 0 {
		return fmt.Errorf("hw: profile %s: negative disk capacity %d sectors",
			p.DisplayName(), p.Disk.TotalSectors)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"disk RPM", p.Disk.RPM},
		{"disk transfer rate", p.Disk.TransferBps},
		{"NIC bandwidth", p.Net.NICBps},
		{"burst-buffer ingest rate", p.BB.IngestBps},
	} {
		if f.v < 0 {
			return fmt.Errorf("hw: profile %s: negative %s %g", p.DisplayName(), f.name, f.v)
		}
	}
	for _, t := range []struct {
		name string
		v    sim.Time
	}{
		{"disk seek-min", p.Disk.SeekMin},
		{"disk seek-max", p.Disk.SeekMax},
		{"disk flat-access time", p.Disk.FlatAccess},
		{"net latency", p.Net.Latency},
	} {
		if t.v < 0 {
			return fmt.Errorf("hw: profile %s: negative %s %d ns", p.DisplayName(), t.name, t.v)
		}
	}
	if p.BB.CapacityBytes < 0 || p.BB.DrainConcurrency < 0 {
		return fmt.Errorf("hw: profile %s: negative burst-buffer sizing", p.DisplayName())
	}
	return nil
}

// PaperProfile is the paper's §IV testbed: 7200 RPM SATA disks behind each
// OST and the MDT, 1 GB/s NICs, no burst buffer. Every override field is
// zero, so a scenario carrying it is bit-identical to one with no profile at
// all — the committed golden traces guard this.
func PaperProfile() Profile { return Profile{Name: "paper"} }

// NVMeProfile swaps the rotational drives for NVMe-class flash: flat 20 µs
// access latency regardless of address (no seek, no rotation) and a
// 2.5 GB/s sustained media rate. Interference no longer degenerates
// sequential streams into seek-bound access, so the paper's dominant
// mechanism largely disappears and contention shifts to the NICs and server
// CPUs.
func NVMeProfile() Profile {
	return Profile{
		Name: "nvme",
		Disk: disk.Config{
			FlatAccess:  20 * sim.Microsecond,
			TransferBps: 2.5e9,
		},
	}
}

// FastNICProfile keeps the rotational disks but upgrades the fabric to
// 10 GB/s per-node NICs with 20 µs latency — the disks become an even
// stronger bottleneck, concentrating interference at the block layer.
func FastNICProfile() Profile {
	return Profile{
		Name: "fastnic",
		Net:  NetConfig{NICBps: 1e10, Latency: 20 * sim.Microsecond},
	}
}

// BurstBufferProfile keeps the paper's disks and NICs but fronts every
// client with a node-local NVMe-class burst buffer (256 MiB at 2 GB/s):
// write latency decouples from PFS contention while bursts fit the buffer,
// the mitigation regime of the paper's references [11][12].
func BurstBufferProfile() Profile {
	return Profile{
		Name: "burstbuffer",
		BB:   BurstBufferConfig{Enabled: true},
	}
}

// ErrUnknownProfile marks a ByName lookup for a name no named constructor
// claims; match with errors.Is.
var ErrUnknownProfile = errors.New("hw: unknown hardware profile")

// Names lists the named profiles in registry order.
func Names() []string { return []string{"paper", "nvme", "fastnic", "burstbuffer"} }

// ByName resolves a named profile ("paper", "nvme", "fastnic",
// "burstbuffer"), returning ErrUnknownProfile (wrapped) otherwise.
func ByName(name string) (Profile, error) {
	switch name {
	case "paper":
		return PaperProfile(), nil
	case "nvme":
		return NVMeProfile(), nil
	case "fastnic":
		return FastNICProfile(), nil
	case "burstbuffer":
		return BurstBufferProfile(), nil
	}
	return Profile{}, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownProfile, name, Names())
}
