// Package disk models a rotational hard drive: seek time as a function of
// head travel distance, rotational latency, and media transfer time. The
// model matches the 7200 RPM SATA disks used in the paper's testbed closely
// enough to reproduce the dominant interference mechanism — competing
// sequential streams degenerating into seek-bound access.
//
// The disk is a single-server device: it services one request at a time.
// Reordering, merging, and queueing policy live one layer up, in
// internal/blockqueue.
package disk

import (
	"fmt"
	"math"

	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// SectorSize is the fixed logical sector size in bytes.
const SectorSize = 512

// Op distinguishes read from write requests.
type Op int

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Request is one device-level I/O.
type Request struct {
	Op      Op
	Sector  int64 // starting logical sector
	Sectors int64 // length in sectors
	// Done is invoked when the media operation completes.
	Done func()
}

// Config describes the drive geometry and performance envelope.
type Config struct {
	// TotalSectors is the addressable capacity (default: 1 TB).
	TotalSectors int64
	// RPM sets rotational latency (default 7200: full revolution 8.33 ms).
	RPM float64
	// SeekMin is the track-to-track seek time (default 0.5 ms).
	SeekMin sim.Time
	// SeekMax is the full-stroke seek time (default 14 ms).
	SeekMax sim.Time
	// TransferBps is the sustained media rate in bytes/second
	// (default 150 MB/s, typical for 7200 RPM SATA3).
	TransferBps float64
	// FlatAccess, when positive, switches the device to a flat-latency
	// (NVMe-class flash) model: every request costs FlatAccess + transfer
	// regardless of address, with no seek, no rotational delay, and no RNG
	// draw — competing streams no longer degenerate into seek-bound access.
	// RPM/SeekMin/SeekMax are ignored and SeqRequests stays zero (flash has
	// no head position to hit). 0 (the default) keeps the rotational model.
	FlatAccess sim.Time
	// Seed feeds the rotational-position RNG.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.TotalSectors == 0 {
		c.TotalSectors = 1 << 31 // 1 TiB at 512 B sectors
	}
	if c.RPM == 0 {
		c.RPM = 7200
	}
	if c.SeekMin == 0 {
		c.SeekMin = 500 * sim.Microsecond
	}
	if c.SeekMax == 0 {
		c.SeekMax = 14 * sim.Millisecond
	}
	if c.TransferBps == 0 {
		c.TransferBps = 150e6
	}
}

// Stats accumulates device-level counters.
type Stats struct {
	Requests     uint64
	SeqRequests  uint64 // serviced with no seek (head already in position)
	SectorsRead  uint64
	SectorsWrite uint64
	BusyTime     sim.Time // total time the device spent servicing requests
	SeekTime     sim.Time // portion of busy time spent seeking/rotating
}

// Disk is the device model.
type Disk struct {
	eng  *sim.Engine
	cfg  Config
	rng  *sim.RNG
	busy bool
	head int64 // sector the head will be over after the in-flight request
	// slow is a fail-slow degradation multiplier on service time (1 =
	// healthy). Fail-slow devices — the phenomenon behind the paper's
	// severity bins (Lu et al., Perseus) — serve requests correctly but
	// arbitrarily slower.
	slow  float64
	stats Stats
	// pending is the in-flight request; completeFn is the completion bound
	// once at construction so the steady-state Submit path allocates nothing.
	pending    *Request
	completeFn func()

	// Observability handles; nil unless Instrument attached a sink.
	sink         *obs.Sink
	instance     string
	cRequests    *obs.Counter
	cSeqRequests *obs.Counter
	cPosNS       *obs.Counter
	cBusyNS      *obs.Counter
	hServiceNS   *obs.Histogram
}

// New builds a disk. The zero Config gives the paper's 1 TB 7200 RPM drive.
func New(eng *sim.Engine, cfg Config) *Disk {
	cfg.applyDefaults()
	if cfg.TotalSectors <= 0 {
		panic("disk: non-positive capacity")
	}
	d := &Disk{
		eng:  eng,
		cfg:  cfg,
		rng:  sim.NewRNG(cfg.Seed ^ 0x6b15),
		slow: 1,
	}
	d.completeFn = d.complete
	return d
}

// Instrument registers device metrics on the sink under the given instance
// name ("ost3", "mdt"): request and sequential-hit counts, time split into
// positioning (seek+rotation) vs total busy time — the paper's dominant
// interference mechanism is exactly this split degrading — and a
// service-time histogram. Each serviced request also becomes a trace span.
func (d *Disk) Instrument(s *obs.Sink, instance string) {
	d.sink = s
	d.instance = instance
	d.cRequests = s.Counter("disk", instance, "requests")
	d.cSeqRequests = s.Counter("disk", instance, "seq_requests")
	d.cPosNS = s.Counter("disk", instance, "positioning_ns")
	d.cBusyNS = s.Counter("disk", instance, "busy_ns")
	d.hServiceNS = s.Histogram("disk", instance, "service_ns", obs.TimeBuckets())
}

// ScaleSlowdown injects or heals a fail-slow condition: every request's
// service time is multiplied by the disk's fail-slow factor, and
// ScaleSlowdown multiplies that factor by factor, clamping at 1 (healthy).
// Fault episodes stack multiplicatively: applying severity s and later
// scaling by 1/s restores the pre-episode factor even when episodes overlap.
func (d *Disk) ScaleSlowdown(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("disk: non-positive slowdown scale %g", factor))
	}
	d.slow *= factor
	if d.slow < 1 {
		d.slow = 1
	}
}

// Slowdown returns the current fail-slow factor (1 = healthy).
func (d *Disk) Slowdown() float64 { return d.slow }

// Busy reports whether a request is currently being serviced.
func (d *Disk) Busy() bool { return d.busy }

// Head returns the current head sector position.
func (d *Disk) Head() int64 { return d.head }

// Stats returns a copy of the accumulated counters.
func (d *Disk) Stats() Stats { return d.stats }

// Config returns the effective configuration after defaults.
func (d *Disk) Config() Config { return d.cfg }

// ServiceTime computes how long a request at the given starting sector would
// take with the head currently at head. Exposed for the block queue's
// elevator to estimate costs and for tests.
func (d *Disk) serviceTime(r *Request) (total, positioning sim.Time) {
	if r.Sector < 0 || r.Sectors <= 0 || r.Sector+r.Sectors > d.cfg.TotalSectors {
		panic(fmt.Sprintf("disk: request out of range: sector=%d count=%d cap=%d",
			r.Sector, r.Sectors, d.cfg.TotalSectors))
	}
	transfer := sim.Time(float64(r.Sectors*SectorSize) / d.cfg.TransferBps * float64(sim.Second))
	if d.cfg.FlatAccess > 0 {
		// Flat-latency device: address-independent access cost, no seek or
		// rotation. The positioning share is the fixed access time, so the
		// busy-vs-positioning split the monitors report stays meaningful.
		return d.slowed(d.cfg.FlatAccess + transfer), d.cfg.FlatAccess
	}
	if r.Sector == d.head {
		// Head already positioned: pure streaming.
		return d.slowed(transfer), 0
	}
	dist := r.Sector - d.head
	if dist < 0 {
		dist = -dist
	}
	// Seek time grows with the square root of travel distance, the standard
	// first-order model for voice-coil actuators.
	frac := math.Sqrt(float64(dist) / float64(d.cfg.TotalSectors))
	seek := d.cfg.SeekMin + sim.Time(frac*float64(d.cfg.SeekMax-d.cfg.SeekMin))
	// Rotational latency: uniform over one revolution.
	revolution := sim.Time(60.0 / d.cfg.RPM * float64(sim.Second))
	rot := sim.Time(d.rng.Float64() * float64(revolution))
	total = d.slowed(seek + rot + transfer)
	return total, seek + rot
}

// maxServiceTime caps a slowed service time at about 146 simulated years,
// leaving as much headroom again before a completion time would wrap
// sim.Time.
const maxServiceTime = float64(1 << 62)

// slowed scales a healthy service time by the fail-slow factor. Overlapping
// fault episodes multiply the factor, so the product saturates at
// maxServiceTime instead of wrapping sim.Time; below the cap the result is
// exactly the unclamped product.
func (d *Disk) slowed(t sim.Time) sim.Time {
	return sim.Time(min(float64(t)*d.slow, maxServiceTime))
}

// Submit services the request. The disk must be idle: callers (the block
// queue) are responsible for serializing submissions.
func (d *Disk) Submit(r *Request) {
	if d.busy {
		panic("disk: submit while busy")
	}
	if r.Done == nil {
		panic("disk: request without completion callback")
	}
	d.busy = true
	total, positioning := d.serviceTime(r)
	d.stats.Requests++
	if positioning == 0 {
		d.stats.SeqRequests++
		d.cSeqRequests.Inc()
	}
	d.stats.SeekTime += positioning
	d.stats.BusyTime += total
	d.cRequests.Inc()
	d.cPosNS.Add(uint64(positioning))
	d.cBusyNS.Add(uint64(total))
	d.hServiceNS.Observe(float64(total))
	d.sink.Span("disk", d.instance, r.Op.String(), d.eng.Now(), total)
	if r.Op == Read {
		d.stats.SectorsRead += uint64(r.Sectors)
	} else {
		d.stats.SectorsWrite += uint64(r.Sectors)
	}
	d.pending = r
	d.eng.Schedule(total, d.completeFn)
}

// complete finishes the in-flight request. The head moves before Done runs
// so a completion callback that resubmits sees the post-request position.
func (d *Disk) complete() {
	r := d.pending
	d.pending = nil
	d.busy = false
	d.head = r.Sector + r.Sectors
	r.Done()
}
