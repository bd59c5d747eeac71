package sim

// Resource is a counting semaphore with a FIFO wait queue, used to model
// bounded server-side resources such as service-thread pools and per-target
// RPC-in-flight limits.
//
// Acquire never blocks the caller; instead the supplied callback runs once a
// unit of the resource has been granted (possibly synchronously, if one is
// free). Release hands the freed unit to the oldest waiter, running its
// callback via a zero-delay event so that deeply chained acquire/release
// sequences do not recurse unboundedly.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []func()
	// peakQueue records the maximum number of simultaneous waiters,
	// which is handy for test assertions and debugging backlog.
	peakQueue int
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Waiting returns the number of queued acquirers.
func (r *Resource) Waiting() int { return len(r.waiters) }

// PeakWaiting returns the largest observed wait-queue length.
func (r *Resource) PeakWaiting() int { return r.peakQueue }

// Acquire grants a unit to fn, either immediately or once one frees up.
func (r *Resource) Acquire(fn func()) {
	if fn == nil {
		panic("sim: nil acquire callback")
	}
	if r.inUse < r.capacity {
		r.inUse++
		fn()
		return
	}
	r.waiters = append(r.waiters, fn)
	if len(r.waiters) > r.peakQueue {
		r.peakQueue = len(r.waiters)
	}
}

// Release returns a unit. If anyone is waiting, the unit passes directly to
// the oldest waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of unheld resource")
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		// Avoid retaining the popped callback.
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = nil
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.eng.Schedule(0, next)
		return
	}
	r.inUse--
}

// Ticker invokes a callback at a fixed period, used by the monitors for 1 Hz
// sampling. The callback receives the tick time. Stop cancels future ticks.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func(Time)
	stopped bool
}

// NewTicker starts a ticker whose first tick fires one period from now.
func NewTicker(eng *Engine, period Time, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.eng.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn(t.eng.Now())
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels the ticker. Safe to call from within the tick callback.
func (t *Ticker) Stop() { t.stopped = true }
