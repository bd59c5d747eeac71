package lustre

import (
	"fmt"
	"sort"

	"quanterference/internal/blockqueue"
	"quanterference/internal/disk"
	"quanterference/internal/netsim"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// extent maps a run of an object's logical sectors to physical sectors.
type extent struct {
	logOff int64 // logical start, in sectors
	length int64 // in sectors
	sector int64 // physical start
}

// object is one file's stripe component on an OST.
type object struct {
	extents []extent // sorted by logOff, non-overlapping
}

// run is a physical disk range.
type run struct {
	sector int64
	length int64
}

// dirtyExtent is write-back data awaiting flush.
type dirtyExtent struct {
	run
	bytes int64 // original payload bytes accounted against the dirty limit
}

type writeWaiter struct {
	bytes    int64
	runs     []run
	done     func()
	enqueued sim.Time
}

// fifo is a slice-backed queue. Popping advances a head index instead of
// reslicing, and a push into a full backing array first reclaims the popped
// prefix, so a queue that never drains keeps reusing one array.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// front returns the oldest item; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.items[q.head] }

func (q *fifo[T]) push(x T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, x)
}

func (q *fifo[T]) pop() T {
	x := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop references held by the popped item
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return x
}

// flush is one write-back flush in flight, pooled per OST with its
// completion bound once.
type flush struct {
	o     *OST
	bytes int64
	start sim.Time
	done  func() // f.complete
}

// readCall is one OST read in flight, pooled per OST: it counts down the
// read's disk runs with a completion bound once.
type readCall struct {
	o         *OST
	remaining int
	done      func()
	runDone   func() // r.complete
}

// OSS is one object storage server: a network node, a service-thread pool,
// and its OSTs.
type OSS struct {
	Node    string
	Threads *sim.Resource
	OSTs    []*OST

	ep netsim.Endpoint // Node, resolved once
}

// OST is one object storage target: a disk with its request queue, an object
// allocator, and a write-back cache.
type OST struct {
	ID  int
	OSS *OSS

	eng *sim.Engine
	q   *blockqueue.Queue

	objects    map[uint64]*object
	nextSector int64
	// runsBuf is mapRange's reusable scratch; see mapRange for the aliasing
	// contract.
	runsBuf []run

	dirtyBytes    int64
	dirtyExtents  fifo[dirtyExtent]
	flushInFlight int
	waiters       fifo[writeWaiter]
	// Free lists of in-flight flushes and reads.
	freeFlushes []*flush
	freeReads   []*readCall
	// cachePressure divides the effective write-back limit (1 = nominal),
	// a fault-injected memory squeeze on the server.
	cachePressure float64
	// dirtyCap is the nominal write-back limit: writebackLimit, except in
	// the package's small-cache tests.
	dirtyCap int64

	// Cumulative stats for monitors and tests.
	writesAdmitted  uint64
	writesThrottled uint64

	// Observability handles; nil unless instrument attached a sink.
	sink        *obs.Sink
	name        string
	cAdmitted   *obs.Counter
	cThrottled  *obs.Counter
	cFlushes    *obs.Counter
	cFlushedSec *obs.Counter
	gDirtyMax   *obs.Gauge
	hThrottleNS *obs.Histogram
}

func newOST(eng *sim.Engine, dc disk.Config, id int, oss *OSS, seed int64) *OST {
	dc.Seed = seed
	d := disk.New(eng, dc)
	q := blockqueue.New(eng, d, blockqueue.Config{
		// Favour reads strongly: real servers absorb writes in RAM and
		// flush opportunistically, which is why the paper's readers are
		// barely affected by write interference (Table I row 1).
		WriteStarveLimit: 8,
	})
	return &OST{
		ID: id, OSS: oss, eng: eng, q: q,
		objects:  make(map[uint64]*object),
		dirtyCap: writebackLimit,
	}
}

// instrument registers write-back cache metrics under the target name
// ("ost3") and instruments the block queue + disk below it: writes admitted
// vs throttled (cache full), flush operations and sectors, the dirty-bytes
// high-water mark, and how long throttled writes waited for cache space.
// Flushes become trace spans, making write-back drains visible next to the
// foreground requests that contend with them.
func (o *OST) instrument(s *obs.Sink, name string) {
	o.q.Instrument(s, name)
	o.sink = s
	o.name = name
	o.cAdmitted = s.Counter("ost", name, "writes_admitted")
	o.cThrottled = s.Counter("ost", name, "writes_throttled")
	o.cFlushes = s.Counter("ost", name, "flushes")
	o.cFlushedSec = s.Counter("ost", name, "flushed_sectors")
	o.gDirtyMax = s.Gauge("ost", name, "max_dirty_bytes")
	o.hThrottleNS = s.Histogram("ost", name, "throttle_wait_ns", obs.TimeBuckets())
}

// Queue exposes the request queue for the server-side monitor.
func (o *OST) Queue() *blockqueue.Queue { return o.q }

// StallUntil freezes the OST's block-layer dispatch until t — a brown-out
// window: RPCs keep arriving and writes keep landing in the cache, but no
// request reaches the media until the stall lifts.
func (o *OST) StallUntil(t sim.Time) { o.q.FreezeUntil(t) }

// SetCachePressure divides the effective write-back limit by factor
// (factor 1 restores the configured limit). Lowering the limit makes
// subsequent writes throttle earlier; raising it back wakes any writes the
// squeeze stranded.
func (o *OST) SetCachePressure(factor float64) {
	if factor < 1 {
		factor = 1
	}
	prev := o.cachePressure
	if prev == 0 {
		prev = 1
	}
	o.cachePressure = factor
	if factor < prev {
		o.wakeWaiters()
	}
}

// dirtyLimit is the effective dirty-data cap under current pressure.
func (o *OST) dirtyLimit() int64 {
	if o.cachePressure <= 1 {
		return o.dirtyCap
	}
	lim := int64(float64(o.dirtyCap) / o.cachePressure)
	if lim < 1 {
		lim = 1
	}
	return lim
}

// DirtyBytes reports the current write-back cache occupancy.
func (o *OST) DirtyBytes() int64 { return o.dirtyBytes }

// ThrottledWrites reports how many write RPCs had to wait for cache space.
func (o *OST) ThrottledWrites() uint64 { return o.writesThrottled }

func (o *OST) object(id uint64) *object {
	obj, ok := o.objects[id]
	if !ok {
		obj = &object{}
		o.objects[id] = obj
	}
	return obj
}

// mapRange translates an object's logical sector range to physical runs,
// allocating space for any holes. Allocation is append-style (like ldiskfs
// block allocation under streaming writes): consecutive logical extents of
// one object land physically adjacent, while interleaved objects fragment.
//
// The returned slice aliases the OST's scratch buffer: it is valid only
// until the next mapRange call on this OST. Callers that retain runs past
// the current event (the write-throttle path) must copy them.
func (o *OST) mapRange(objID uint64, startSec, nSec int64) []run {
	if nSec <= 0 {
		panic(fmt.Sprintf("lustre: empty range on ost %d", o.ID))
	}
	obj := o.object(objID)
	runs := o.runsBuf[:0]
	cur := startSec
	end := startSec + nSec
	for cur < end {
		// Last extent starting at or before cur.
		i := sort.Search(len(obj.extents), func(k int) bool {
			return obj.extents[k].logOff > cur
		}) - 1
		if i >= 0 {
			e := obj.extents[i]
			if cur < e.logOff+e.length {
				// Inside an allocated extent: in-place.
				n := e.logOff + e.length - cur
				if cur+n > end {
					n = end - cur
				}
				runs = append(runs, run{sector: e.sector + (cur - e.logOff), length: n})
				cur += n
				continue
			}
		}
		// Hole: allocate up to the next extent or range end.
		gapEnd := end
		if i+1 < len(obj.extents) && obj.extents[i+1].logOff < gapEnd {
			gapEnd = obj.extents[i+1].logOff
		}
		n := gapEnd - cur
		phys := o.nextSector
		o.nextSector += n
		// Merge with predecessor when logically and physically contiguous.
		if i >= 0 {
			e := &obj.extents[i]
			if e.logOff+e.length == cur && e.sector+e.length == phys {
				e.length += n
				runs = append(runs, run{sector: phys, length: n})
				cur += n
				continue
			}
		}
		obj.extents = append(obj.extents, extent{})
		copy(obj.extents[i+2:], obj.extents[i+1:])
		obj.extents[i+1] = extent{logOff: cur, length: n, sector: phys}
		runs = append(runs, run{sector: phys, length: n})
		cur += n
	}
	o.runsBuf = runs
	return runs
}

// sectorRange converts a byte range to (startSector, sectorCount).
func sectorRange(off, length int64) (int64, int64) {
	start := off / disk.SectorSize
	end := (off + length + disk.SectorSize - 1) / disk.SectorSize
	return start, end - start
}

// write lands payload bytes for an object range: admit into the write-back
// cache (throttling if full), then complete; flushing happens in the
// background with read priority at the block queue. Admission is FIFO: once
// any write is waiting for cache space, later writes — however small — queue
// behind it, which is what lets saturating bulk writers starve small-file
// writers (Table I, mdt-hard-write row).
func (o *OST) write(objID uint64, off, length int64, done func()) {
	startSec, nSec := sectorRange(off, length)
	runs := o.mapRange(objID, startSec, nSec)
	if o.waiters.len() > 0 ||
		(o.dirtyBytes > 0 && o.dirtyBytes+length > o.dirtyLimit()) {
		o.writesThrottled++
		o.cThrottled.Inc()
		// The waiter outlives this event, so it needs its own copy of the
		// scratch-backed runs.
		o.waiters.push(writeWaiter{
			bytes: length, runs: append([]run(nil), runs...),
			done: done, enqueued: o.eng.Now()})
		return
	}
	o.admit(length, runs, done)
}

// admit does the unconditional cache bookkeeping; callers check space.
func (o *OST) admit(bytes int64, runs []run, done func()) {
	o.writesAdmitted++
	o.cAdmitted.Inc()
	o.dirtyBytes += bytes
	o.gDirtyMax.Max(float64(o.dirtyBytes))
	per := bytes / int64(len(runs)) // attribute payload evenly across runs
	rem := bytes - per*int64(len(runs))
	for i, r := range runs {
		b := per
		if i == 0 {
			b += rem
		}
		o.dirtyExtents.push(dirtyExtent{run: r, bytes: b})
	}
	o.scheduleFlush()
	done()
}

func (o *OST) scheduleFlush() {
	for o.flushInFlight < flushBatch && o.dirtyExtents.len() > 0 {
		ext := o.dirtyExtents.pop()
		o.flushInFlight++
		o.cFlushes.Inc()
		o.cFlushedSec.Add(uint64(ext.length))
		var f *flush
		if k := len(o.freeFlushes); k > 0 {
			f = o.freeFlushes[k-1]
			o.freeFlushes = o.freeFlushes[:k-1]
		} else {
			f = &flush{o: o}
			f.done = f.complete
		}
		f.bytes, f.start = ext.bytes, o.eng.Now()
		o.q.Submit(disk.Write, ext.sector, ext.length, f.done)
	}
}

func (f *flush) complete() {
	o := f.o
	bytes, start := f.bytes, f.start
	o.freeFlushes = append(o.freeFlushes, f)
	o.flushInFlight--
	o.dirtyBytes -= bytes
	o.sink.Span("ost", o.name, "flush", start, o.eng.Now()-start)
	o.wakeWaiters()
	o.scheduleFlush()
}

func (o *OST) wakeWaiters() {
	for o.waiters.len() > 0 {
		if w := o.waiters.front(); o.dirtyBytes > 0 && o.dirtyBytes+w.bytes > o.dirtyLimit() {
			return
		}
		w := o.waiters.pop()
		o.hThrottleNS.Observe(float64(o.eng.Now() - w.enqueued))
		o.admit(w.bytes, w.runs, w.done)
	}
}

// read fetches an object range from disk, completing when all runs arrive.
func (o *OST) read(objID uint64, off, length int64, done func()) {
	startSec, nSec := sectorRange(off, length)
	runs := o.mapRange(objID, startSec, nSec)
	var r *readCall
	if k := len(o.freeReads); k > 0 {
		r = o.freeReads[k-1]
		o.freeReads = o.freeReads[:k-1]
	} else {
		r = &readCall{o: o}
		r.runDone = r.complete
	}
	r.remaining, r.done = len(runs), done
	for _, run := range runs {
		o.q.Submit(disk.Read, run.sector, run.length, r.runDone)
	}
}

func (r *readCall) complete() {
	r.remaining--
	if r.remaining > 0 {
		return
	}
	o, done := r.o, r.done
	r.done = nil
	o.freeReads = append(o.freeReads, r)
	done()
}

// populate lays out an object's range instantly (no simulated time), for
// pre-creating files that read-only workloads consume.
func (o *OST) populate(objID uint64, off, length int64) {
	startSec, nSec := sectorRange(off, length)
	o.mapRange(objID, startSec, nSec)
}
