// Package fault is the deterministic, seed-free fault-injection subsystem:
// a declarative Spec describes one degraded-mode episode (which component,
// when, for how long, how severe), and the Injector schedules the apply and
// revert events on the simulation engine. Because episodes are ordinary
// engine events, two runs of the same scenario produce byte-identical
// results — faults are part of the experiment definition, not noise.
//
// The episode kinds map one-to-one onto the degraded regimes the paper's
// risk-metric lineage (LASSi, Lu et al.'s fail-slow taxonomy) observes on
// production Lustre systems:
//
//   - DiskSlow: a fail-slow device serving every request N times slower
//     (media errors, remapped sectors, a dying actuator);
//   - OSTStall: a brown-out window in which the OST's block layer stops
//     dispatching entirely (RAID rebuild, controller cache flush, firmware
//     hiccup) while requests pile up in the queue;
//   - OSTCachePressure: a write-back cache squeeze — the dirty-data limit
//     shrinks by a factor, so writers hit throttling far earlier;
//   - MDSStorm: a metadata latency storm multiplying per-op CPU cost
//     (lock-contention storms, dcache shrinking);
//   - NetCollapse: a transient bandwidth collapse on one node's NIC
//     (link renegotiation, a flapping switch port).
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"quanterference/internal/sim"
)

// maxSeverity bounds every degradation factor: a million-fold slowdown.
// OSTStall already models a total outage, so no real regime needs more, and
// the bound keeps one episode's scaled times inside sim.Time: a disk service
// time, an MDS op cost or a flow's completion time at one millionth of its
// bandwidth. Overlapping disk-slow episodes multiply, and the disk saturates
// their product.
const maxSeverity = 1e6

// maxSpecSeconds bounds a parsed start or duration (about 31 years): far past
// any scenario's MaxTime, and small enough that start + duration stays inside
// sim.Time.
const maxSpecSeconds = 1e9

// Kind enumerates fault classes.
type Kind int

const (
	// DiskSlow multiplies one target disk's service time by Severity.
	DiskSlow Kind = iota
	// OSTStall freezes one OST's block-layer dispatch for the window.
	OSTStall
	// OSTCachePressure divides one OST's write-back dirty limit by Severity.
	OSTCachePressure
	// MDSStorm multiplies the MDS's per-op CPU cost by Severity.
	MDSStorm
	// NetCollapse divides one node's NIC bandwidth by Severity.
	NetCollapse
)

var kindNames = [...]string{
	"disk-slow", "ost-stall", "ost-cache", "mds-storm", "net-collapse",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a kind name ("disk-slow", "ost-stall", "ost-cache",
// "mds-storm", "net-collapse").
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want one of %s)",
		s, strings.Join(kindNames[:], ", "))
}

// Spec declares one fault episode. The zero Spec is invalid; every episode
// names its target explicitly so a scenario reads as a complete experiment
// description.
type Spec struct {
	Kind Kind
	// Target selects the component instance: a storage-target name
	// ("ost0".."ostN", "mdt") for DiskSlow/OSTStall/OSTCachePressure/
	// MDSStorm, or a network node name ("oss1", "mds", "c3") for
	// NetCollapse. OSTStall and OSTCachePressure accept OST names only;
	// MDSStorm accepts only "mdt" (the default when empty).
	Target string
	// Start is when the episode begins (simulated time, >= 0).
	Start sim.Time
	// Duration is how long the degraded window lasts (> 0).
	Duration sim.Time
	// Severity is the degradation factor, in [1, 1e6]: the disk service-time
	// multiplier, the write-back-limit divisor, the MDS CPU multiplier, or
	// the bandwidth divisor. OSTStall ignores it (a stall is total).
	Severity float64
}

// Validate checks the spec's self-consistency (target existence is checked
// at injection time, against the actual cluster).
func (s Spec) Validate() error {
	if s.Kind < 0 || int(s.Kind) >= len(kindNames) {
		return fmt.Errorf("fault: unknown kind %d", int(s.Kind))
	}
	if s.Target == "" && s.Kind != MDSStorm {
		return fmt.Errorf("fault: %s episode needs a target", s.Kind)
	}
	if s.Start < 0 {
		return fmt.Errorf("fault: %s(%s) has negative start %d", s.Kind, s.Target, s.Start)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("fault: %s(%s) has non-positive duration %d", s.Kind, s.Target, s.Duration)
	}
	if s.Kind != OSTStall {
		switch {
		case s.Severity < 1:
			return fmt.Errorf("fault: %s(%s) severity %g < 1 (1 = healthy)", s.Kind, s.Target, s.Severity)
		case !(s.Severity <= maxSeverity): // also NaN
			return fmt.Errorf("fault: %s(%s) severity %g is not a number in [1, %g]",
				s.Kind, s.Target, s.Severity, float64(maxSeverity))
		}
	}
	return nil
}

// String renders the spec in the flag syntax ParseSpec accepts.
func (s Spec) String() string {
	return fmt.Sprintf("%s:%s:%g:%g:%g", s.Kind, s.Target,
		sim.ToSeconds(s.Start), sim.ToSeconds(s.Duration), s.Severity)
}

// ParseSpec parses "kind:target:start:duration:severity" with start and
// duration in (possibly fractional) seconds, e.g. "disk-slow:ost0:10:5:4" —
// OST 0's disk serves everything 4x slower from t=10 s to t=15 s. OSTStall
// accepts a 4-field form without severity ("ost-stall:ost1:10:5").
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) < 4 || len(parts) > 5 {
		return Spec{}, fmt.Errorf("fault: spec %q: want kind:target:start:duration[:severity]", s)
	}
	kind, err := ParseKind(parts[0])
	if err != nil {
		return Spec{}, err
	}
	num := func(field, v string) (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("fault: spec %q: bad %s %q", s, field, v)
		}
		return f, nil
	}
	// Seconds are range-checked before sim.Seconds converts them, which
	// would wrap a non-finite or huge value into a meaningless sim.Time.
	seconds := func(field, v string) (float64, error) {
		f, err := num(field, v)
		switch {
		case err != nil:
		case f < 0:
			err = fmt.Errorf("fault: spec %q: negative %s %s", s, field, v)
		case !(f <= maxSpecSeconds): // also NaN
			err = fmt.Errorf("fault: spec %q: %s %s is not a number of seconds in [0, %g]",
				s, field, v, float64(maxSpecSeconds))
		}
		return f, err
	}
	start, err := seconds("start", parts[2])
	if err != nil {
		return Spec{}, err
	}
	dur, err := seconds("duration", parts[3])
	if err != nil {
		return Spec{}, err
	}
	sev := 1.0
	if len(parts) == 5 {
		if sev, err = num("severity", parts[4]); err != nil {
			return Spec{}, err
		}
	} else if kind != OSTStall {
		return Spec{}, fmt.Errorf("fault: spec %q: %s needs a severity", s, kind)
	}
	spec := Spec{
		Kind:     kind,
		Target:   parts[1],
		Start:    sim.Seconds(start),
		Duration: sim.Seconds(dur),
		Severity: sev,
	}
	return spec, spec.Validate()
}

// ParseSpecs parses a comma-separated spec list (empty input gives nil).
func ParseSpecs(s string) ([]Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Spec
	for _, item := range strings.Split(s, ",") {
		spec, err := ParseSpec(item)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}
