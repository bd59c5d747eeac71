// Package bb models a node-local burst buffer: a fast tier (NVMe-class)
// that absorbs an application's write bursts at local speed and drains them
// to the parallel file system asynchronously. Burst buffers are the
// mitigation class of the paper's references [11] (TRIO) and [12]
// (coordinated burst buffers): the application's write latency decouples
// from PFS contention as long as the burst fits the buffer.
package bb

import (
	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/sim"
)

// withDefaults fills the sizes a profile's burst-buffer section leaves at 0:
// a 256 MiB buffer, a 2 GB/s (NVMe-class) local absorb rate, and 4 PFS
// write RPCs the drainer keeps in flight.
func withDefaults(c hw.BurstBufferConfig) hw.BurstBufferConfig {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = 256 << 20
	}
	if c.IngestBps == 0 {
		c.IngestBps = 2e9
	}
	if c.DrainConcurrency == 0 {
		c.DrainConcurrency = 4
	}
	return c
}

// Stats reports buffer behaviour.
type Stats struct {
	Absorbed  int64 // bytes accepted at local speed
	Drained   int64 // bytes flushed to the PFS
	Stalls    int   // writes that had to wait for buffer space
	PeakUsage int64
}

// segment is one absorbed write awaiting drain.
type segment struct {
	h      *lustre.Handle
	off    int64
	length int64
}

type waiter struct {
	seg  segment
	done func()
}

// Buffer is one client node's burst buffer.
type Buffer struct {
	eng *sim.Engine
	c   *lustre.Client
	cfg hw.BurstBufferConfig

	used     int64
	queue    []segment
	draining int
	waiters  []waiter
	stats    Stats
}

// Attach creates a burst buffer in front of the given client, sized by the
// profile section cfg (its Enabled flag is the caller's business).
func Attach(eng *sim.Engine, c *lustre.Client, cfg hw.BurstBufferConfig) *Buffer {
	return &Buffer{eng: eng, c: c, cfg: withDefaults(cfg)}
}

// Stats returns a snapshot.
func (b *Buffer) Stats() Stats { return b.stats }

// Used returns current occupancy in bytes.
func (b *Buffer) Used() int64 { return b.used }

// Idle reports whether everything absorbed has drained.
func (b *Buffer) Idle() bool {
	return b.used == 0 && len(b.queue) == 0 && b.draining == 0 && len(b.waiters) == 0
}

// Write absorbs the range locally (completing at ingest speed) and schedules
// the drain; when the buffer is full the write waits for drained space —
// the burst-buffer saturation regime.
func (b *Buffer) Write(h *lustre.Handle, off, length int64, done func()) {
	seg := segment{h: h, off: off, length: length}
	if b.used+length > b.cfg.CapacityBytes {
		b.stats.Stalls++
		b.waiters = append(b.waiters, waiter{seg: seg, done: done})
		return
	}
	b.absorb(seg, done)
}

func (b *Buffer) absorb(seg segment, done func()) {
	b.used += seg.length
	if b.used > b.stats.PeakUsage {
		b.stats.PeakUsage = b.used
	}
	b.stats.Absorbed += seg.length
	b.queue = append(b.queue, seg)
	ingest := sim.Time(float64(seg.length) / b.cfg.IngestBps * float64(sim.Second))
	b.eng.Schedule(ingest, func() {
		done()
		b.drainLoop()
	})
}

// drainLoop keeps up to DrainConcurrency PFS writes in flight.
func (b *Buffer) drainLoop() {
	for b.draining < b.cfg.DrainConcurrency && len(b.queue) > 0 {
		seg := b.queue[0]
		b.queue = b.queue[1:]
		b.draining++
		b.c.Write(seg.h, seg.off, seg.length, func() {
			b.draining--
			b.used -= seg.length
			b.stats.Drained += seg.length
			b.admitWaiters()
			b.drainLoop()
		})
	}
}

// admitWaiters releases stalled writes FIFO as space frees.
func (b *Buffer) admitWaiters() {
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		if b.used+w.seg.length > b.cfg.CapacityBytes {
			return
		}
		b.waiters = b.waiters[1:]
		b.absorb(w.seg, w.done)
	}
}

// Tier fronts every compute node's client with a buffer of its own. A
// node's buffer is attached on its first Route and shared by every rank
// that writes from that node; the simulation is single-threaded and
// deterministic, so the lazy attachment is order-stable.
type Tier struct {
	fs   *lustre.FS
	cfg  hw.BurstBufferConfig
	bufs map[string]*Buffer
}

// NewTier creates a tier over fs whose buffers are all sized by cfg.
func NewTier(fs *lustre.FS, cfg hw.BurstBufferConfig) *Tier {
	return &Tier{fs: fs, cfg: cfg, bufs: make(map[string]*Buffer)}
}

// Route returns node's write path through its buffer, in the shape of
// workload.Runner's WriteViaFor hook.
func (t *Tier) Route(node string) func(h *lustre.Handle, off, length int64, done func()) {
	buf, ok := t.bufs[node]
	if !ok {
		buf = Attach(t.fs.Eng, t.fs.Client(node), t.cfg)
		t.bufs[node] = buf
	}
	return buf.Write
}

// Used is the bytes every node's buffer has absorbed and not yet drained
// to the PFS.
func (t *Tier) Used() int64 {
	var n int64
	for _, b := range t.bufs {
		n += b.used
	}
	return n
}
