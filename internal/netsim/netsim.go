// Package netsim models a cluster network as a set of per-node duplex links
// joined by a non-blocking switch, with bandwidth shared max-min fairly among
// concurrent transfers (a fluid-flow model). This reproduces the network
// contention component of I/O interference: many clients pushing data at one
// storage server divide that server's ingress NIC bandwidth.
//
// Each transfer occupies the sender's uplink and the receiver's downlink; its
// instantaneous rate is its max-min fair share across both. Rates are
// recomputed whenever a flow starts or finishes (the classic progressive-
// filling algorithm), and the completion event is rescheduled accordingly.
package netsim

import (
	"errors"
	"fmt"
	"math"

	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// Typed errors returned by the fabric's mutation API; match with errors.Is.
var (
	// ErrBadScale marks a SetBandwidthScale factor outside (0, 1].
	ErrBadScale = errors.New("netsim: bandwidth scale outside (0, 1]")
	// ErrUnknownNode marks an operation on a node name never registered
	// with AddNode.
	ErrUnknownNode = errors.New("netsim: unknown node")
)

// Config describes the fabric.
type Config struct {
	// DefaultBps is the per-direction NIC bandwidth for nodes not
	// explicitly configured (default 1 Gb/s = 125 MB/s, the paper's NICs).
	DefaultBps float64
	// Latency is the fixed one-way message latency (default 100 µs).
	Latency sim.Time
}

func (c *Config) applyDefaults() {
	if c.DefaultBps == 0 {
		c.DefaultBps = 125e6
	}
	if c.Latency == 0 {
		c.Latency = 100 * sim.Microsecond
	}
}

// link is one direction of a node's NIC.
type link struct {
	name  string
	cap   float64
	scale float64 // fault-injected capacity multiplier in (0, 1]

	// Progressive-filling scratch, valid only while epoch matches the
	// network's current recompute epoch; storing it here keeps recompute
	// allocation-free.
	remCap   float64
	unfrozen int
	epoch    uint64
}

// effCap is the usable capacity under the current degradation scale.
func (l *link) effCap() float64 { return l.cap * l.scale }

type node struct {
	name string
	up   *link
	down *link
	// Counters for the monitors.
	bytesSent uint64
	bytesRecv uint64
}

type flow struct {
	id        uint64 // creation order, for deterministic completion order
	src, dst  *node
	remaining float64 // bytes
	rate      float64 // bytes/sec, recomputed on every change
	done      func()
	start     sim.Time // creation time, for observability
	bytes     int64    // original size, for observability
}

// timer is one armed completion check. Its fire func is bound once, when the
// timer is made, so re-arming allocates nothing; a timer returns to its
// network's pool as it fires.
type timer struct {
	n    *Network
	gen  uint64 // the n.gen this check was armed for
	fire func()
}

func (t *timer) run() {
	n := t.n
	gen := t.gen
	n.freeTimers = append(n.freeTimers, t)
	if gen != n.gen {
		return // superseded by a later topology change
	}
	n.advance()
	n.finishDrained()
}

// NodeStats reports cumulative traffic through a node.
type NodeStats struct {
	BytesSent uint64
	BytesRecv uint64
}

// Network is the fabric.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes map[string]*node
	// flows holds active transfers in creation (id) order: every loop over
	// it — draining, bottleneck search, completion — is deterministic by
	// construction, and removal compacts in place.
	flows []*flow

	lastAdvance sim.Time
	gen         uint64 // invalidates stale completion events
	nextFlowID  uint64

	// Reusable scratch and free lists for the recompute/finish hot path.
	epoch       uint64
	freeFlows   []*flow
	freeTimers  []*timer
	linksBuf    []*link
	unfrozenBuf []*flow
	finishedBuf []*flow

	// Observability handles; nil unless Instrument attached a sink.
	sink        *obs.Sink
	cFlows      *obs.Counter
	cBytes      *obs.Counter
	cRecomputes *obs.Counter
	gActiveMax  *obs.Gauge
	hFlowNS     *obs.Histogram
}

// New creates an empty network.
func New(eng *sim.Engine, cfg Config) *Network {
	cfg.applyDefaults()
	return &Network{
		eng:   eng,
		cfg:   cfg,
		nodes: make(map[string]*node),
	}
}

// Instrument registers fabric metrics on the sink: flow and byte counters,
// the number of max-min fair-share recomputations (each one is a throttling
// decision redistributing NIC bandwidth), the peak concurrent-flow count,
// and a flow-duration histogram. With tracing enabled, every completed flow
// becomes a span on its destination node's row — a saturated server ingress
// NIC shows up as a solid bar of overlapping flows.
func (n *Network) Instrument(s *obs.Sink) {
	n.sink = s
	n.cFlows = s.Counter("netsim", "", "flows")
	n.cBytes = s.Counter("netsim", "", "bytes")
	n.cRecomputes = s.Counter("netsim", "", "fair_share_recomputes")
	n.gActiveMax = s.Gauge("netsim", "", "max_active_flows")
	n.hFlowNS = s.Histogram("netsim", "", "flow_ns", obs.TimeBuckets())
}

// AddNode registers a node; bps == 0 uses the default NIC speed.
func (n *Network) AddNode(name string, bps float64) {
	if _, ok := n.nodes[name]; ok {
		panic("netsim: duplicate node " + name)
	}
	if bps == 0 {
		bps = n.cfg.DefaultBps
	}
	n.nodes[name] = &node{
		name: name,
		up:   &link{name: name + "/up", cap: bps, scale: 1},
		down: &link{name: name + "/down", cap: bps, scale: 1},
	}
}

// SetBandwidthScale degrades (or, with scale 1, heals) one node's NIC: both
// directions' capacity is multiplied by scale in (0, 1]. Active flows are
// drained at their old rates up to now, then re-shared max-min fairly at the
// new capacity — a transient bandwidth collapse (link renegotiation, a
// flapping switch port) as the fault layer injects it.
//
// An out-of-range scale returns an error wrapping ErrBadScale and an
// unregistered node one wrapping ErrUnknownNode; in both cases the fabric is
// left untouched. (This used to panic; the error return matches the typed
// error surface of the public API.)
func (n *Network) SetBandwidthScale(name string, scale float64) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("%w: %g for node %q", ErrBadScale, scale, name)
	}
	nd, ok := n.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	n.advance()
	nd.up.scale = scale
	nd.down.scale = scale
	n.reschedule()
	return nil
}

// HasNode reports whether the node exists.
func (n *Network) HasNode(name string) bool {
	_, ok := n.nodes[name]
	return ok
}

// Stats returns cumulative per-node traffic counters.
func (n *Network) Stats(name string) NodeStats {
	nd := n.node(name)
	return NodeStats{BytesSent: nd.bytesSent, BytesRecv: nd.bytesRecv}
}

// ActiveFlows returns the number of in-progress transfers.
func (n *Network) ActiveFlows() int { return len(n.flows) }

func (n *Network) node(name string) *node {
	nd, ok := n.nodes[name]
	if !ok {
		panic("netsim: unknown node " + name)
	}
	return nd
}

// Transfer moves bytes from src to dst, invoking done after the last byte
// arrives (including the fixed latency). Zero-byte transfers model pure
// control messages and cost one latency.
func (n *Network) Transfer(src, dst string, bytes int64, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: negative transfer size %d", bytes))
	}
	if done == nil {
		panic("netsim: nil completion")
	}
	s, d := n.node(src), n.node(dst)
	if bytes == 0 || s == d {
		n.eng.Schedule(n.cfg.Latency, done)
		return
	}
	s.bytesSent += uint64(bytes)
	d.bytesRecv += uint64(bytes)
	n.nextFlowID++
	var f *flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &flow{}
	}
	*f = flow{id: n.nextFlowID, src: s, dst: d, remaining: float64(bytes), done: done,
		start: n.eng.Now(), bytes: bytes}
	n.cFlows.Inc()
	n.cBytes.Add(uint64(bytes))
	n.advance()
	n.flows = append(n.flows, f) // ids increase, so the slice stays id-sorted
	n.gActiveMax.Max(float64(len(n.flows)))
	n.reschedule()
}

// advance drains remaining bytes at current rates up to now.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := sim.ToSeconds(now - n.lastAdvance)
	n.lastAdvance = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// recompute assigns max-min fair rates via progressive filling. Link state
// lives on the links themselves (epoch-stamped) and the worklists reuse the
// network's scratch slices, so the whole pass is allocation-free; every
// iteration runs in flow-id or first-touch order, so ties resolve the same
// way on every run.
func (n *Network) recompute() {
	if len(n.flows) == 0 {
		return
	}
	n.cRecomputes.Inc()
	n.epoch++
	links := n.linksBuf[:0]
	touch := func(l *link) {
		if l.epoch != n.epoch {
			l.epoch = n.epoch
			l.remCap = l.effCap()
			l.unfrozen = 0
			links = append(links, l)
		}
	}
	unfrozen := n.unfrozenBuf[:0]
	for _, f := range n.flows {
		unfrozen = append(unfrozen, f)
		touch(f.src.up)
		f.src.up.unfrozen++
		touch(f.dst.down)
		f.dst.down.unfrozen++
	}
	for len(unfrozen) > 0 {
		// Find the bottleneck link: minimum fair share.
		var bottleneck *link
		minShare := math.Inf(1)
		for _, l := range links {
			if l.unfrozen == 0 {
				continue
			}
			share := l.remCap / float64(l.unfrozen)
			if share < minShare {
				minShare = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at minShare,
		// compacting the survivors in place.
		keep := unfrozen[:0]
		for _, f := range unfrozen {
			if f.src.up != bottleneck && f.dst.down != bottleneck {
				keep = append(keep, f)
				continue
			}
			f.rate = minShare
			for _, l := range [2]*link{f.src.up, f.dst.down} {
				l.remCap -= minShare
				if l.remCap < 0 {
					l.remCap = 0
				}
				l.unfrozen--
			}
		}
		unfrozen = keep
	}
	n.linksBuf = links[:0]
	n.unfrozenBuf = unfrozen[:0]
}

// reschedule recomputes rates and arms the next completion event.
func (n *Network) reschedule() {
	n.recompute()
	if len(n.flows) == 0 {
		return
	}
	// Earliest completion among active flows.
	soonest := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		panic("netsim: active flows with zero aggregate rate")
	}
	delay := sim.Time(math.Ceil(soonest * float64(sim.Second)))
	if delay < 1 {
		delay = 1
	}
	n.gen++
	var t *timer
	if k := len(n.freeTimers); k > 0 {
		t = n.freeTimers[k-1]
		n.freeTimers = n.freeTimers[:k-1]
	} else {
		t = &timer{n: n}
		t.fire = t.run
	}
	t.gen = n.gen
	n.eng.Schedule(delay, t.fire)
}

// finishDrained completes flows whose bytes have drained and reschedules.
// n.flows is id-sorted, so splitting it preserves creation order — the
// stable completion order reproducibility requires — without sorting.
func (n *Network) finishDrained() {
	const eps = 1.0 // within one byte counts as done
	finished := n.finishedBuf[:0]
	active := n.flows[:0]
	for _, f := range n.flows {
		if f.remaining <= eps {
			finished = append(finished, f)
		} else {
			active = append(active, f)
		}
	}
	n.flows = active
	now := n.eng.Now()
	traceOn := n.sink.TraceEnabled()
	for _, f := range finished {
		n.hFlowNS.Observe(float64(now - f.start))
		if traceOn {
			n.sink.Span("netsim", f.dst.name, "flow:"+f.src.name, f.start, now-f.start)
		}
	}
	n.reschedule()
	for i, f := range finished {
		n.eng.Schedule(n.cfg.Latency, f.done)
		// The engine holds the done closure, not the flow: recycle it.
		f.done = nil
		finished[i] = nil
		n.freeFlows = append(n.freeFlows, f)
	}
	n.finishedBuf = finished[:0]
}
