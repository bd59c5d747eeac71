// Package blockqueue models the Linux block layer sitting in front of a
// rotational disk: a request queue with back/front merging of contiguous
// requests up to 1 MiB, one dispatch policy (a C-LOOK elevator that serves
// reads before writes, with a write-starvation bound, like the deadline
// scheduler), and /proc/diskstats-style accounting.
//
// The counters exposed here are exactly the raw material for the paper's
// Table II server-side metrics: completed I/Os, merges, sectors moved, time
// spent queued, and the queue-depth integral ("weighted" time).
package blockqueue

import (
	"quanterference/internal/disk"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// maxMergeSectors caps the size of a merged request (2048 sectors = 1 MiB,
// matching max_sectors_kb=1024).
const maxMergeSectors = 2048

// Config tunes the queue.
type Config struct {
	// WriteStarveLimit bounds write starvation: pending reads dispatch
	// before writes, but after WriteStarveLimit consecutive reads a waiting
	// write is dispatched anyway (default 4, cf. the deadline scheduler's
	// writes_starved).
	WriteStarveLimit int
}

// Counters mirrors the /proc/diskstats fields the server-side monitor
// samples once per second.
type Counters struct {
	ReadsCompleted  uint64
	WritesCompleted uint64
	ReadsMerged     uint64
	WritesMerged    uint64
	SectorsRead     uint64
	SectorsWritten  uint64
	// ReadTime / WriteTime sum, over completed requests, the full
	// queue-entry-to-completion latency (diskstats fields 4 and 8).
	ReadTime  sim.Time
	WriteTime sim.Time
	// InFlight is the instantaneous number of requests issued but not
	// completed (queued + on device).
	InFlight int
	// IOTime is the total wall time with at least one request in flight
	// (io_ticks).
	IOTime sim.Time
	// WeightedIOTime integrates InFlight over time (aveq).
	WeightedIOTime sim.Time
}

type ioReq struct {
	op      disk.Op
	sector  int64
	sectors int64
	arrival sim.Time
	dones   []func()
	merges  uint64 // number of requests merged into this one
}

func (r *ioReq) end() int64 { return r.sector + r.sectors }

// Queue is one device's request queue.
type Queue struct {
	eng *sim.Engine
	dev *disk.Disk
	cfg Config

	pending    []*ioReq
	dispatched *ioReq
	counters   Counters
	// free recycles completed ioReq structs; devReq/devDone are the single
	// reused device-level request and its prebound completion, so the
	// steady-state submit->dispatch->complete cycle allocates nothing beyond
	// the caller's done closure.
	free    []*ioReq
	devReq  disk.Request
	devDone func()
	// frozen suspends dispatch until the given time (a fault-injected
	// brown-out); submissions and merges continue, so the backlog and the
	// queue-time integrals keep accounting through the stall.
	frozen sim.Time

	lastAccount   sim.Time
	consecReads   int
	totalSubmits  uint64
	totalDispatch uint64

	// Observability handles; nil unless Instrument attached a sink.
	sink       *obs.Sink
	instance   string
	cSubmits   *obs.Counter
	cDispatch  *obs.Counter
	cMerges    *obs.Counter
	cFreezes   *obs.Counter
	gDepthMax  *obs.Gauge
	hLatencyNS *obs.Histogram
}

// New wraps a disk with a request queue.
func New(eng *sim.Engine, dev *disk.Disk, cfg Config) *Queue {
	if cfg.WriteStarveLimit == 0 {
		cfg.WriteStarveLimit = 4
	}
	q := &Queue{eng: eng, dev: dev, cfg: cfg}
	q.devDone = func() { q.complete(q.dispatched) }
	return q
}

// Instrument registers block-layer metrics on the sink under the given
// instance name and instruments the underlying device with the same name:
// submit/dispatch/merge counters (the per-device iostat deltas behind the
// paper's Table II features), a backlog high-water gauge, and a
// queue-entry-to-completion latency histogram. Each completed request also
// becomes a trace span covering its queued + service time.
func (q *Queue) Instrument(s *obs.Sink, instance string) {
	q.dev.Instrument(s, instance)
	q.sink = s
	q.instance = instance
	q.cSubmits = s.Counter("blockqueue", instance, "submits")
	q.cDispatch = s.Counter("blockqueue", instance, "dispatches")
	q.cMerges = s.Counter("blockqueue", instance, "merges")
	q.cFreezes = s.Counter("blockqueue", instance, "freezes")
	q.gDepthMax = s.Gauge("blockqueue", instance, "max_backlog")
	q.hLatencyNS = s.Histogram("blockqueue", instance, "latency_ns", obs.TimeBuckets())
}

// account integrates queue-depth-over-time counters up to now.
func (q *Queue) account() {
	now := q.eng.Now()
	dt := now - q.lastAccount
	if dt > 0 && q.counters.InFlight > 0 {
		q.counters.WeightedIOTime += sim.Time(q.counters.InFlight) * dt
		q.counters.IOTime += dt
	}
	q.lastAccount = now
}

// FreezeUntil suspends dispatch until t (a fault-injected brown-out or
// controller-cache stall): requests already on the device complete, queued
// and newly submitted requests wait, and dispatch resumes at t. Extending an
// active freeze is allowed; shortening one is ignored.
func (q *Queue) FreezeUntil(t sim.Time) {
	if t <= q.frozen || t <= q.eng.Now() {
		return
	}
	q.frozen = t
	q.cFreezes.Inc()
	q.eng.At(t, func() { q.maybeDispatch() })
}

// Idle reports whether nothing is queued or on the device.
func (q *Queue) Idle() bool { return len(q.pending) == 0 && q.dispatched == nil }

// Counters returns a snapshot with time integrals brought up to now.
func (q *Queue) Counters() Counters {
	q.account()
	return q.counters
}

// DiskStats exposes the underlying device counters.
func (q *Queue) DiskStats() disk.Stats { return q.dev.Stats() }

// Device exposes the underlying device (e.g. for fail-slow injection).
func (q *Queue) Device() *disk.Disk { return q.dev }

// Submit enqueues an I/O. done runs when the request (or the merged request
// carrying it) completes on media.
func (q *Queue) Submit(op disk.Op, sector, sectors int64, done func()) {
	if sectors <= 0 {
		panic("blockqueue: non-positive request size")
	}
	if done == nil {
		panic("blockqueue: nil completion")
	}
	q.account()
	q.counters.InFlight++
	q.totalSubmits++
	q.cSubmits.Inc()

	// Try to merge with a pending request of the same direction.
	for _, p := range q.pending {
		if p.op != op || p.sectors+sectors > maxMergeSectors {
			continue
		}
		if p.end() == sector { // back merge
			p.sectors += sectors
			p.dones = append(p.dones, done)
			p.merges++
			q.noteMerge(op)
			return
		}
		if sector+sectors == p.sector { // front merge
			p.sector = sector
			p.sectors += sectors
			p.dones = append(p.dones, done)
			p.merges++
			q.noteMerge(op)
			return
		}
	}

	var req *ioReq
	if n := len(q.free); n > 0 {
		req = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		req = &ioReq{}
	}
	req.op, req.sector, req.sectors = op, sector, sectors
	req.arrival, req.merges = q.eng.Now(), 0
	req.dones = append(req.dones[:0], done)
	q.pending = append(q.pending, req)
	q.gDepthMax.Max(float64(len(q.pending)))
	q.maybeDispatch()
}

func (q *Queue) noteMerge(op disk.Op) {
	q.cMerges.Inc()
	if op == disk.Read {
		q.counters.ReadsMerged++
	} else {
		q.counters.WritesMerged++
	}
}

// pickNext selects the index of the next request to dispatch: reads before
// writes, unless WriteStarveLimit reads in a row have passed a waiting write,
// and within that direction C-LOOK order — the smallest sector at or past
// the head, else (wrapping) the smallest pending sector.
func (q *Queue) pickNext() int {
	if len(q.pending) == 1 {
		return 0
	}
	hasRead, hasWrite := false, false
	for _, p := range q.pending {
		if p.op == disk.Read {
			hasRead = true
		} else {
			hasWrite = true
		}
	}
	op := disk.Write
	if hasRead && !(hasWrite && q.consecReads >= q.cfg.WriteStarveLimit) {
		op = disk.Read
	}
	head := q.dev.Head()
	best, wrap := -1, -1
	for i, p := range q.pending {
		if p.op != op {
			continue
		}
		if p.sector >= head && (best == -1 || p.sector < q.pending[best].sector) {
			best = i
		}
		if wrap == -1 || p.sector < q.pending[wrap].sector {
			wrap = i
		}
	}
	if best == -1 {
		best = wrap
	}
	return best
}

func (q *Queue) maybeDispatch() {
	if q.dispatched != nil || len(q.pending) == 0 || q.dev.Busy() {
		return
	}
	if q.eng.Now() < q.frozen {
		return
	}
	i := q.pickNext()
	req := q.pending[i]
	q.pending = append(q.pending[:i], q.pending[i+1:]...)
	q.dispatched = req
	q.totalDispatch++
	q.cDispatch.Inc()
	if req.op == disk.Read {
		q.consecReads++
	} else {
		q.consecReads = 0
	}
	q.devReq = disk.Request{
		Op:      req.op,
		Sector:  req.sector,
		Sectors: req.sectors,
		Done:    q.devDone,
	}
	q.dev.Submit(&q.devReq)
}

func (q *Queue) complete(req *ioReq) {
	q.account()
	n := uint64(len(req.dones))
	latency := q.eng.Now() - req.arrival
	if req.op == disk.Read {
		q.counters.ReadsCompleted += n
		q.counters.SectorsRead += uint64(req.sectors)
		q.counters.ReadTime += latency * sim.Time(n)
	} else {
		q.counters.WritesCompleted += n
		q.counters.SectorsWritten += uint64(req.sectors)
		q.counters.WriteTime += latency * sim.Time(n)
	}
	q.counters.InFlight -= int(n)
	q.dispatched = nil
	q.hLatencyNS.Observe(float64(latency))
	q.sink.Span("blockqueue", q.instance, req.op.String(), req.arrival, latency)
	for _, d := range req.dones {
		d()
	}
	// Recycle after the completion callbacks: they may submit re-entrantly,
	// but any new request either merged into a pending one or came from the
	// free list / a fresh allocation — never this req, which left q.pending
	// at dispatch.
	for i := range req.dones {
		req.dones[i] = nil
	}
	req.dones = req.dones[:0]
	q.free = append(q.free, req)
	q.maybeDispatch()
}
