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
//
// Nodes, links and flows live in slices addressed by int32 index, and every
// worklist is a slice of indices, so the per-flow hot path stores no
// pointer: the garbage collector never scans the fabric's scratch and no
// write barrier guards it. Callers resolve a node name to an Endpoint once
// and pass endpoints to Transfer.
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
	// Latency is the fixed one-way message latency (default 100 µs).
	Latency sim.Time
}

// defaultBps is the per-direction NIC bandwidth of a node added with bps 0:
// 125 MB/s, a 1 Gb/s link. The paper's NICs are 1 GB/s, and the file system
// registers every node at that speed or the hardware profile's.
const defaultBps = 125e6

// Endpoint is a registered node's index in the network: AddNode returns it
// and Endpoint resolves a name to it. Transfer takes endpoints, so moving
// bytes involves no name lookup.
type Endpoint int32

// link is one direction of a node's NIC. Node e's uplink is links[2e] and
// its downlink links[2e+1].
type link struct {
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
	// Counters for the monitors.
	bytesSent uint64
	bytesRecv uint64
}

// flow is one active transfer. It holds no pointer: its completion callback
// lives at the same index of Network.dones.
type flow struct {
	up, down  int32   // the sender's uplink and the receiver's downlink
	remaining float64 // bytes
	rate      float64 // bytes/sec, recomputed on every change
	start     sim.Time
}

// NodeStats reports cumulative traffic through a node.
type NodeStats struct {
	BytesSent uint64
	BytesRecv uint64
}

// Network is the fabric.
type Network struct {
	eng    *sim.Engine
	cfg    Config
	byName map[string]Endpoint
	nodes  []node
	links  []link

	// flows is a pool of transfer slots, dones their completion callbacks;
	// freeFlows lists the unused slots. active holds the live slots in
	// creation order: every loop over it — draining, bottleneck search,
	// completion — is deterministic by construction, and removal compacts
	// in place.
	flows     []flow
	dones     []func()
	freeFlows []int32
	active    []int32

	lastAdvance sim.Time
	gen         uint64 // invalidates stale completion events

	// Completion timers: timerGens[t] is the n.gen timer t was armed for,
	// timerFires[t] its event callback, bound once; a timer returns to
	// freeTimers as it fires, so re-arming allocates nothing.
	timerGens  []uint64
	timerFires []func()
	freeTimers []int32

	// Recompute and finish scratch: touched links in first-touch order,
	// unfrozen and finished flow slots.
	epoch    uint64
	touched  []int32
	unfrozen []int32
	finished []int32

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
	if cfg.Latency == 0 {
		cfg.Latency = 100 * sim.Microsecond
	}
	return &Network{
		eng:    eng,
		cfg:    cfg,
		byName: make(map[string]Endpoint),
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

// AddNode registers a node and returns its endpoint; bps == 0 uses
// defaultBps.
func (n *Network) AddNode(name string, bps float64) Endpoint {
	if _, ok := n.byName[name]; ok {
		panic("netsim: duplicate node " + name)
	}
	if bps == 0 {
		bps = defaultBps
	}
	e := Endpoint(len(n.nodes))
	n.byName[name] = e
	n.nodes = append(n.nodes, node{name: name})
	n.links = append(n.links, link{cap: bps, scale: 1}, link{cap: bps, scale: 1})
	return e
}

// Endpoint resolves a registered node name; an unknown name panics.
func (n *Network) Endpoint(name string) Endpoint {
	e, ok := n.byName[name]
	if !ok {
		panic("netsim: unknown node " + name)
	}
	return e
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
	e, ok := n.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	n.advance()
	n.links[2*e].scale = scale
	n.links[2*e+1].scale = scale
	n.reschedule()
	return nil
}

// Stats returns cumulative per-node traffic counters.
func (n *Network) Stats(name string) NodeStats {
	nd := &n.nodes[n.Endpoint(name)]
	return NodeStats{BytesSent: nd.bytesSent, BytesRecv: nd.bytesRecv}
}

// ActiveFlows returns the number of in-progress transfers.
func (n *Network) ActiveFlows() int { return len(n.active) }

// Transfer moves bytes from src to dst, invoking done after the last byte
// arrives (including the fixed latency). Zero-byte transfers model pure
// control messages and cost one latency. An endpoint this network did not
// return panics.
func (n *Network) Transfer(src, dst Endpoint, bytes int64, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: negative transfer size %d", bytes))
	}
	if done == nil {
		panic("netsim: nil completion")
	}
	s, d := &n.nodes[src], &n.nodes[dst]
	if bytes == 0 || src == dst {
		n.eng.Schedule(n.cfg.Latency, done)
		return
	}
	s.bytesSent += uint64(bytes)
	d.bytesRecv += uint64(bytes)
	if len(n.freeFlows) == 0 {
		n.freeFlows = append(n.freeFlows, int32(len(n.flows)))
		n.flows = append(n.flows, flow{})
		n.dones = append(n.dones, nil)
	}
	i := n.freeFlows[len(n.freeFlows)-1]
	n.freeFlows = n.freeFlows[:len(n.freeFlows)-1]
	n.flows[i] = flow{up: 2 * int32(src), down: 2*int32(dst) + 1,
		remaining: float64(bytes), start: n.eng.Now()}
	n.dones[i] = done
	n.cFlows.Inc()
	n.cBytes.Add(uint64(bytes))
	n.advance()
	n.active = append(n.active, i) // creation order
	n.gActiveMax.Max(float64(len(n.active)))
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
	for _, i := range n.active {
		f := &n.flows[i]
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// touch stamps link l into the current recompute epoch on its first touch,
// resetting its scratch and listing it in first-touch order.
func (n *Network) touch(l int32) {
	lk := &n.links[l]
	if lk.epoch != n.epoch {
		lk.epoch = n.epoch
		lk.remCap = lk.effCap()
		lk.unfrozen = 0
		n.touched = append(n.touched, l)
	}
	lk.unfrozen++
}

// recompute assigns max-min fair rates via progressive filling. Link state
// lives on the links themselves (epoch-stamped) and the worklists are the
// network's index slices, appended and resliced in place, so the whole pass
// allocates nothing and stores no pointer; every iteration runs in flow
// creation or link first-touch order, so ties resolve the same way on every
// run.
func (n *Network) recompute() {
	if len(n.active) == 0 {
		return
	}
	n.cRecomputes.Inc()
	n.epoch++
	n.touched = n.touched[:0]
	n.unfrozen = n.unfrozen[:0]
	for _, i := range n.active {
		n.unfrozen = append(n.unfrozen, i)
		f := &n.flows[i]
		n.touch(f.up)
		n.touch(f.down)
	}
	links := n.links
	for len(n.unfrozen) > 0 {
		// Find the bottleneck link: minimum fair share.
		bottleneck := int32(-1)
		minShare := math.Inf(1)
		for _, l := range n.touched {
			lk := &links[l]
			if lk.unfrozen == 0 {
				continue
			}
			share := lk.remCap / float64(lk.unfrozen)
			if share < minShare {
				minShare = share
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at minShare,
		// compacting the survivors in place.
		keep := 0
		for _, i := range n.unfrozen {
			f := &n.flows[i]
			if f.up != bottleneck && f.down != bottleneck {
				n.unfrozen[keep] = i
				keep++
				continue
			}
			f.rate = minShare
			for _, l := range [2]int32{f.up, f.down} {
				lk := &links[l]
				lk.remCap -= minShare
				if lk.remCap < 0 {
					lk.remCap = 0
				}
				lk.unfrozen--
			}
		}
		n.unfrozen = n.unfrozen[:keep]
	}
}

// reschedule recomputes rates and arms the next completion event.
func (n *Network) reschedule() {
	n.recompute()
	if len(n.active) == 0 {
		return
	}
	// Earliest completion among active flows.
	soonest := math.Inf(1)
	for _, i := range n.active {
		f := &n.flows[i]
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
	if len(n.freeTimers) == 0 {
		n.addTimer()
	}
	t := n.freeTimers[len(n.freeTimers)-1]
	n.freeTimers = n.freeTimers[:len(n.freeTimers)-1]
	n.timerGens[t] = n.gen
	n.eng.Schedule(delay, n.timerFires[t])
}

// addTimer grows the timer pool by one free timer.
func (n *Network) addTimer() {
	t := int32(len(n.timerFires))
	n.timerGens = append(n.timerGens, 0)
	n.timerFires = append(n.timerFires, func() { n.fire(t) })
	n.freeTimers = append(n.freeTimers, t)
}

// fire runs completion timer t, returning it to the pool.
func (n *Network) fire(t int32) {
	n.freeTimers = append(n.freeTimers, t)
	if n.timerGens[t] != n.gen {
		return // superseded by a later topology change
	}
	n.advance()
	n.finishDrained()
}

// finishDrained completes flows whose bytes have drained and reschedules.
// n.active is in creation order, so splitting it preserves that order — the
// stable completion order reproducibility requires — without sorting.
func (n *Network) finishDrained() {
	const eps = 1.0 // within one byte counts as done
	n.finished = n.finished[:0]
	keep := 0
	for _, i := range n.active {
		if n.flows[i].remaining <= eps {
			n.finished = append(n.finished, i)
		} else {
			n.active[keep] = i
			keep++
		}
	}
	n.active = n.active[:keep]
	now := n.eng.Now()
	traceOn := n.sink.TraceEnabled()
	for _, i := range n.finished {
		f := &n.flows[i]
		n.hFlowNS.Observe(float64(now - f.start))
		if traceOn {
			n.sink.Span("netsim", n.nodes[f.down/2].name, "flow:"+n.nodes[f.up/2].name,
				f.start, now-f.start)
		}
	}
	n.reschedule()
	for _, i := range n.finished {
		n.eng.Schedule(n.cfg.Latency, n.dones[i])
		// The engine holds the callback now: free the slot.
		n.dones[i] = nil
		n.freeFlows = append(n.freeFlows, i)
	}
}
