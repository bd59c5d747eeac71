// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every other simulated subsystem in this repository:
// disks, block queues, the network, and the Lustre-like file system are all
// implemented as callbacks scheduled on a single Engine. Time is modelled as
// int64 nanoseconds so that runs are exactly reproducible for a given seed.
//
// The engine is intentionally single-threaded: events run one at a time in
// (time, insertion) order. Simulated concurrency comes from interleaving
// events, not goroutines, which keeps runs deterministic and fast.
package sim

import (
	"fmt"
	"math"

	"quanterference/internal/obs"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time = int64

// Common durations, mirroring time.Duration constants but typed as sim.Time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time {
	return Time(math.Round(s * float64(Second)))
}

// ToSeconds converts a Time to floating-point seconds.
func ToSeconds(t Time) float64 {
	return float64(t) / float64(Second)
}

// entry is one queued event. It holds no pointers — the callback lives in
// the engine's slot table — so sifting the heap moves plain words the
// garbage collector never scans and no write barrier guards.
type entry struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	slot int    // index of the callback in Engine.fns
}

// before orders entries by (at, seq), a strict total order: seq is unique,
// so any correct heap pops events in exactly one sequence.
func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is a discrete-event simulator clock and event queue.
type Engine struct {
	now Time
	seq uint64
	// queue is a binary min-heap of entries ordered by (at, seq).
	queue []entry
	// fns holds each queued event's callback at its slot; free lists the
	// unused slots. Both grow to the peak queue depth and are never
	// trimmed, so the steady-state loop allocates nothing of its own.
	fns     []func()
	free    []int
	stopped bool
	// executed counts events that have run; useful for progress assertions.
	executed uint64

	// Observability handles; nil (one branch per event) unless Instrument
	// attached a sink.
	cEvents    *obs.Counter
	cScheduled *obs.Counter
	gQueueMax  *obs.Gauge
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Instrument registers the engine's metrics on the sink: events executed,
// events scheduled, and the maximum event-queue depth seen.
func (e *Engine) Instrument(s *obs.Sink) {
	e.cEvents = s.Counter("engine", "", "events_executed")
	e.cScheduled = s.Counter("engine", "", "events_scheduled")
	e.gQueueMax = s.Gauge("engine", "", "max_queue_depth")
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after delay. A zero delay schedules fn to run after all
// callbacks already queued for the current instant. Negative delays panic:
// they always indicate a modelling bug.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %d < now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	var slot int
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = len(e.fns)
		e.fns = append(e.fns, nil)
	}
	e.fns[slot] = fn
	e.push(entry{at: t, seq: e.seq, slot: slot})
	e.cScheduled.Inc()
	e.gQueueMax.Max(float64(len(e.queue)))
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	top := e.pop()
	e.now = top.at
	e.executed++
	e.cEvents.Inc()
	fn := e.fns[top.slot]
	// Free the slot before running fn, so a callback that schedules may
	// reuse it immediately.
	e.fns[top.slot] = nil
	e.free = append(e.free, top.slot)
	fn()
	return true
}

// push adds x to the heap, sifting it up through a hole rather than by
// swaps.
func (e *Engine) push(x entry) {
	// Appending to the field itself lets the compiler skip storing the
	// slice pointer (and its write barrier) unless the array grows.
	e.queue = append(e.queue, x)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// pop removes and returns the heap's minimum: the last entry fills the
// root's hole and sifts down.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	x := q[n]
	e.queue = e.queue[:n] // reslicing the field in place stores only its length
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(x) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = x
	}
	return top
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled for later remain queued.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the current Run or RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }
