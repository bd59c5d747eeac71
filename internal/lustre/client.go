package lustre

import (
	"fmt"

	"quanterference/internal/netsim"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// Client is a compute node's Lustre client. All operations are asynchronous:
// the completion callback fires when the operation finishes in simulated
// time. A single Client may carry many application ranks; per-target RPC
// concurrency is limited like the real client's max_rpcs_in_flight.
type Client struct {
	Node string

	ep    netsim.Endpoint // Node, resolved once
	fs    *FS
	slots []*sim.Resource // one per target (OSTs then MDT)
	// bucket throttles bulk data when a QoS rule is set (see SetRateLimit).
	bucket *tokenBucket
	// rng draws the retry-backoff jitter; derived from clientSeed and the
	// node name, so runs are exactly reproducible.
	rng *sim.RNG

	// Free lists of in-flight operation state (see metaCall, bulkRPC,
	// dataCall, readOp). They belong to this client, so nothing pooled
	// outlives the simulation or crosses runs.
	freeMeta  []*metaCall
	freeBulk  []*bulkRPC
	freeData  []*dataCall
	freeReads []*readOp

	// Readahead-efficiency counters (the Darshan-style client view) and
	// the degraded-mode counters (bulk-RPC timeouts, resends, and RPCs that
	// needed one); nil unless instrument attached a sink.
	cRAHit      *obs.Counter
	cRAWait     *obs.Counter
	cRAMiss     *obs.Counter
	cRAPrefetch *obs.Counter
	cRetries    *obs.Counter
	cTimeouts   *obs.Counter
	cDegraded   *obs.Counter
}

// Handle is an open file with its layout cached client-side, plus the
// per-stream readahead state (cf. Lustre's per-file read-ahead windows).
type Handle struct {
	c   *Client
	Ino *Inode

	lastReadEnd int64
	seqStreak   int
	ra          map[int64]*raChunk // key: chunk start byte offset
}

// raChunk tracks one prefetched stripe-size chunk.
type raChunk struct {
	done    bool
	end     int64
	waiters []func()
}

func newClient(fs *FS, node string, ep netsim.Endpoint) *Client {
	var nodeMix int64
	for _, b := range node {
		nodeMix = nodeMix*131 + int64(b)
	}
	c := &Client{Node: node, ep: ep, fs: fs, rng: sim.NewRNG(clientSeed ^ nodeMix)}
	c.slots = make([]*sim.Resource, fs.NumTargets())
	for i := range c.slots {
		c.slots[i] = sim.NewResource(fs.Eng, maxRPCsInFlight)
	}
	return c
}

// instrument registers readahead-efficiency counters under the client's
// node name: reads fully served from prefetched data (hit), reads that had
// to wait on an in-flight prefetch (wait), reads that bypassed the window
// entirely (miss), and chunks prefetched; and the degraded-mode counters
// retries, timeouts and degraded_ops.
func (c *Client) instrument(s *obs.Sink) {
	c.cRAHit = s.Counter("client", c.Node, "ra_hits")
	c.cRAWait = s.Counter("client", c.Node, "ra_waits")
	c.cRAMiss = s.Counter("client", c.Node, "ra_misses")
	c.cRAPrefetch = s.Counter("client", c.Node, "ra_prefetches")
	c.cRetries = s.Counter("client", c.Node, "retries")
	c.cTimeouts = s.Counter("client", c.Node, "timeouts")
	c.cDegraded = s.Counter("client", c.Node, "degraded_ops")
}

// metaCall is one metadata RPC in flight: client slot, request message,
// MDS service (see MDS.handle), reply message. Calls are pooled per client
// with their steps bound once, so a round trip allocates nothing of its own.
// A call returns to the pool just before its completion runs, which may
// therefore issue the next RPC on the same call.
type metaCall struct {
	c           *Client
	op          MetaOp
	path        string
	stripeCount int
	arrival     sim.Time // when the request reached the MDS
	ino         *Inode   // the MDS's answer
	// Exactly one completion is set: opened (Create, Open) receives a
	// fresh handle on the answer, done (the rest) nothing.
	opened func(*Handle)
	done   func()

	// Steps, bound once and named after the event that runs them.
	acquired, arrived, granted, computed, served, replied func()
}

// metaRPC performs a metadata round trip to the MDS; exactly one of opened
// and done is non-nil.
func (c *Client) metaRPC(op MetaOp, path string, stripeCount int, opened func(*Handle), done func()) {
	var m *metaCall
	if k := len(c.freeMeta); k > 0 {
		m = c.freeMeta[k-1]
		c.freeMeta = c.freeMeta[:k-1]
	} else {
		m = &metaCall{c: c}
		m.acquired, m.arrived, m.replied = m.send, m.arrive, m.complete
		m.granted, m.computed, m.served = m.compute, m.service, m.reply
	}
	m.op, m.path, m.stripeCount, m.opened, m.done = op, path, stripeCount, opened, done
	c.slots[c.fs.MDTIndex()].Acquire(m.acquired)
}

func (m *metaCall) send() {
	c := m.c
	c.fs.Net.Transfer(c.ep, c.fs.mds.ep, reqMsgBytes, m.arrived)
}

func (m *metaCall) arrive() { m.c.fs.mds.handle(m) }

func (m *metaCall) complete() {
	c := m.c
	c.slots[c.fs.MDTIndex()].Release()
	ino, opened, done := m.ino, m.opened, m.done
	m.path, m.ino, m.opened, m.done = "", nil, nil, nil
	c.freeMeta = append(c.freeMeta, m)
	if opened != nil {
		opened(&Handle{c: c, Ino: ino})
		return
	}
	done()
}

// Create makes (or truncate-opens) a file with the given stripe count
// (0 = file-system default) and returns an open handle.
func (c *Client) Create(path string, stripeCount int, done func(*Handle)) {
	c.metaRPC(MetaCreate, path, stripeCount, done, nil)
}

// Open opens an existing file.
func (c *Client) Open(path string, done func(*Handle)) {
	c.metaRPC(MetaOpen, path, 0, done, nil)
}

// Stat fetches attributes of an existing path.
func (c *Client) Stat(path string, done func()) {
	c.metaRPC(MetaStat, path, 0, nil, done)
}

// Close closes a handle.
func (c *Client) Close(h *Handle, done func()) {
	c.metaRPC(MetaClose, h.Ino.Path, 0, nil, done)
}

// Unlink removes a file.
func (c *Client) Unlink(path string, done func()) {
	c.metaRPC(MetaUnlink, path, 0, nil, done)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string, done func()) {
	c.metaRPC(MetaMkdir, path, 0, nil, done)
}

// chunk is one per-OST piece of a striped byte range.
type chunk struct {
	ost    int   // OST id
	objOff int64 // object-local byte offset
	length int64
}

// checkRange panics on a data op the layout cannot serve.
func (ino *Inode) checkRange(off, length int64) {
	if ino.Dir {
		panic("lustre: data op on directory " + ino.Path)
	}
	if off < 0 || length <= 0 {
		panic(fmt.Sprintf("lustre: bad range off=%d len=%d", off, length))
	}
}

// chunkAt returns the per-OST piece (RAID0) of the file range [cur, end)
// that starts at cur: the rest of cur's stripe unit, clipped to end.
// Walking a range chunk by chunk needs no slice.
func (ino *Inode) chunkAt(cur, end int64) chunk {
	ss := ino.StripeSize
	unit := cur / ss        // global stripe unit index
	within := cur - unit*ss // offset inside the unit
	take := ss - within
	if cur+take > end {
		take = end - cur
	}
	n := int64(len(ino.OSTs))
	return chunk{
		ost:    ino.OSTs[unit%n],
		objOff: (unit/n)*ss + within, // unit/n: the unit's index within the object
		length: take,
	}
}

// chunks splits a file byte range into per-OST object ranges (RAID0).
func (h *Handle) chunks(off, length int64) []chunk {
	h.Ino.checkRange(off, length)
	var out []chunk
	for cur, end := off, off+length; cur < end; {
		ch := h.Ino.chunkAt(cur, end)
		out = append(out, ch)
		cur += ch.length
	}
	return out
}

// Targets returns the distinct OST ids a byte range touches, in stripe
// order: the range's k stripe units start at stripe s and touch
// min(k, stripe count) consecutive stripes, wrapping around the layout.
// Unless the range wraps, the result is a window of Ino.OSTs itself, so
// treat it as read-only.
func (h *Handle) Targets(off, length int64) []int {
	ino := h.Ino
	ino.checkRange(off, length)
	ss := ino.StripeSize
	n := int64(len(ino.OSTs))
	first := off / ss
	units := (off+length-1)/ss - first + 1
	if units > n {
		units = n
	}
	s := first % n
	if s+units <= n {
		return ino.OSTs[s : s+units : s+units]
	}
	out := make([]int, 0, units)
	out = append(out, ino.OSTs[s:]...)
	return append(out, ino.OSTs[:s+units-n]...)
}

// dataCall is one striped data op in flight, pooled per client: it counts
// down the op's RPCs with a completion bound once, and returns to the pool
// just before its own completion runs.
type dataCall struct {
	c         *Client
	h         *Handle
	end       int64 // off + length
	write     bool
	remaining int
	done      func()
	rpcDone   func() // d.complete, bound once
}

// dataOp runs all chunks of a striped range concurrently, bounded by
// per-target RPC slots, and fires done when the last chunk completes.
func (c *Client) dataOp(h *Handle, off, length int64, write bool, done func()) {
	ino := h.Ino
	ino.checkRange(off, length)
	var d *dataCall
	if k := len(c.freeData); k > 0 {
		d = c.freeData[k-1]
		c.freeData = c.freeData[:k-1]
	} else {
		d = &dataCall{c: c}
		d.rpcDone = d.complete
	}
	end := off + length
	// remaining starts with the loop's own share, so no RPC can finish the
	// op before every RPC has been issued.
	d.h, d.end, d.write, d.done, d.remaining = h, end, write, done, 1
	for cur := off; cur < end; {
		ch := ino.chunkAt(cur, end)
		// Split chunks larger than the RPC size cap.
		for sent := int64(0); sent < ch.length; {
			take := ch.length - sent
			if take > maxRPCBytes {
				take = maxRPCBytes
			}
			d.remaining++
			c.rpc(ino, ch.ost, ch.objOff+sent, take, write, d.rpcDone)
			sent += take
		}
		cur += ch.length
	}
	d.complete()
}

func (d *dataCall) complete() {
	d.remaining--
	if d.remaining > 0 {
		return
	}
	if d.write && d.end > d.h.Ino.Size {
		d.h.Ino.Size = d.end
	}
	c, done := d.c, d.done
	d.h, d.done = nil, nil
	c.freeData = append(c.freeData, d)
	done()
}

// rpc performs one bulk RPC to an OST.
func (c *Client) rpc(ino *Inode, ostID int, objOff, length int64, write bool, done func()) {
	if c.bucket != nil {
		c.bucket.acquire(length, func() {
			c.rpcUnthrottled(ino, ostID, objOff, length, write, done)
		})
		return
	}
	c.rpcUnthrottled(ino, ostID, objOff, length, write, done)
}

// rpcUnthrottled resolves one bulk RPC, with timeout/retry once
// SetRPCTimeout arms a timeout. Each attempt is a full send (sendRPC); an
// attempt outstanding past the timeout is abandoned — its eventual
// completion is ignored, like a reply to a resent XID — and the RPC is
// resent after a bounded exponential backoff with deterministic
// seed-derived jitter. The final attempt carries no timeout, so the op
// always completes: degraded mode slows clients down, it never wedges them.
func (c *Client) rpcUnthrottled(ino *Inode, ostID int, objOff, length int64, write bool, done func()) {
	if c.fs.rpcTimeout <= 0 {
		c.sendRPC(ino, ostID, objOff, length, write, done)
		return
	}
	c.sendAttempt(ino, ostID, objOff, length, write, done, 0)
}

func (c *Client) sendAttempt(ino *Inode, ostID int, objOff, length int64, write bool, done func(), attempt int) {
	fs := c.fs
	settled := false
	c.sendRPC(ino, ostID, objOff, length, write, func() {
		if settled {
			return // abandoned attempt: a later resend owns this op now
		}
		settled = true
		if attempt > 0 {
			c.cDegraded.Inc()
		}
		done()
	})
	if attempt >= rpcRetryLimit {
		return // last attempt rides to completion
	}
	fs.Eng.Schedule(fs.rpcTimeout, func() {
		if settled {
			return
		}
		settled = true
		c.cTimeouts.Inc()
		backoff := rpcBackoffBase << uint(attempt)
		backoff += c.rng.Int63n(backoff) // deterministic jitter in [0, backoff)
		fs.Eng.Schedule(backoff, func() {
			c.cRetries.Inc()
			c.sendAttempt(ino, ostID, objOff, length, write, done, attempt+1)
		})
	})
}

// bulkRPC is one attempt of a bulk RPC in flight: client slot, request
// message, OSS thread and CPU, OST data path, reply message. Attempts are
// pooled per client with their steps bound once, and return to the pool
// just before their completion runs.
type bulkRPC struct {
	c              *Client
	ost            *OST
	slot           *sim.Resource
	objID          uint64
	objOff, length int64
	write          bool
	done           func()

	// Steps, bound once and named after the event that runs them.
	acquired, arrived, granted, computed, stored, replied func()
}

// sendRPC performs one attempt of a bulk RPC: slot, network, OSS thread,
// OST data path, reply. A write carries its data with the request and is
// answered by a header; a read sends a header and gets its data back after
// the disk fetch.
func (c *Client) sendRPC(ino *Inode, ostID int, objOff, length int64, write bool, done func()) {
	var b *bulkRPC
	if k := len(c.freeBulk); k > 0 {
		b = c.freeBulk[k-1]
		c.freeBulk = c.freeBulk[:k-1]
	} else {
		b = &bulkRPC{c: c}
		b.acquired, b.arrived, b.granted = b.send, b.arrive, b.compute
		b.computed, b.stored, b.replied = b.serve, b.reply, b.complete
	}
	b.ost, b.slot = c.fs.osts[ostID], c.slots[ostID]
	b.objID, b.objOff, b.length, b.write, b.done = ino.ObjID, objOff, length, write, done
	b.slot.Acquire(b.acquired)
}

func (b *bulkRPC) send() {
	c := b.c
	bytes := reqMsgBytes
	if b.write {
		bytes += b.length
	}
	c.fs.Net.Transfer(c.ep, b.ost.OSS.ep, bytes, b.arrived)
}

func (b *bulkRPC) arrive() { b.ost.OSS.Threads.Acquire(b.granted) }

func (b *bulkRPC) compute() { b.c.fs.Eng.Schedule(ossOpCPU, b.computed) }

// serve runs the OST data path. A write frees its thread once the data is
// handed to the write-back cache; a read holds it through the disk fetch.
func (b *bulkRPC) serve() {
	if b.write {
		b.ost.OSS.Threads.Release()
		b.ost.write(b.objID, b.objOff, b.length, b.stored)
		return
	}
	b.ost.read(b.objID, b.objOff, b.length, b.stored)
}

func (b *bulkRPC) reply() {
	c := b.c
	bytes := reqMsgBytes
	if !b.write {
		b.ost.OSS.Threads.Release()
		bytes += b.length
	}
	c.fs.Net.Transfer(b.ost.OSS.ep, c.ep, bytes, b.replied)
}

func (b *bulkRPC) complete() {
	c := b.c
	b.slot.Release()
	done := b.done
	b.ost, b.slot, b.done = nil, nil, nil
	c.freeBulk = append(c.freeBulk, b)
	done()
}

// Write stores length bytes at off, completing when the data is accepted by
// every target's write-back cache (throttled when caches are full). Writing
// through a handle drops its readahead cache.
func (c *Client) Write(h *Handle, off, length int64, done func()) {
	h.ra = nil
	c.dataOp(h, off, length, true, done)
}

// Read fetches length bytes at off. Sequential streams (each read starting
// where the previous ended) trigger readahead: the next readAheadChunks
// stripe-size chunks are fetched in the background, and reads covered by
// prefetched data complete as soon as the prefetch RPC lands. This is what
// keeps several RPCs in flight per sequential stream, as on a real client.
func (c *Client) Read(h *Handle, off, length int64, done func()) {
	raChunks := int64(c.fs.readAheadChunks)
	if raChunks == 0 {
		c.dataOp(h, off, length, false, done)
		return
	}
	if off == h.lastReadEnd {
		h.seqStreak++
	} else {
		h.seqStreak = 0
	}
	h.lastReadEnd = off + length
	// Readahead arms only after two back-to-back sequential reads (a
	// ramp-up, like the kernel's), so a single accidental match — e.g.
	// the first op of a strided pattern — doesn't prefetch megabytes.
	sequential := h.seqStreak >= 1 && off > 0 || h.seqStreak >= 2

	cs := h.Ino.StripeSize
	firstChunk := (off / cs) * cs
	lastChunk := ((off + length - 1) / cs) * cs

	// Served by the readahead window?
	covered := h.ra != nil
	if covered {
		for chunk := firstChunk; chunk <= lastChunk; chunk += cs {
			e, ok := h.ra[chunk]
			if !ok || e.end < min64ra(chunk+cs, off+length) {
				covered = false
				break
			}
		}
	}
	var r *readOp
	if k := len(c.freeReads); k > 0 {
		r = c.freeReads[k-1]
		c.freeReads = c.freeReads[:k-1]
	} else {
		r = &readOp{c: c}
		r.finish, r.chunkDone = r.complete, r.onChunk
	}
	r.h, r.end, r.done, r.pending = h, off+length, done, 0
	if covered {
		for chunk := firstChunk; chunk <= lastChunk; chunk += cs {
			if e := h.ra[chunk]; !e.done {
				r.pending++
				e.waiters = append(e.waiters, r.chunkDone)
			}
		}
		if r.pending == 0 {
			c.cRAHit.Inc()
			// Entirely cache-resident: page-cache copy cost only.
			c.fs.Eng.Schedule(c.fs.cacheHitTime, r.finish)
		} else {
			c.cRAWait.Inc()
		}
	} else {
		c.cRAMiss.Inc()
		c.dataOp(h, off, length, false, r.finish)
	}
	if sequential {
		h.extendRA(lastChunk+cs, raChunks)
	}
}

// readOp is one readahead-managed read in flight, pooled per client: it
// waits for the prefetched chunks it needs (or its own data op), then trims
// the window behind the stream and completes.
type readOp struct {
	c       *Client
	h       *Handle
	end     int64 // off + length
	pending int   // prefetched chunks still in flight
	done    func()

	// Bound once.
	finish, chunkDone func()
}

func (r *readOp) onChunk() {
	r.pending--
	if r.pending == 0 {
		r.complete()
	}
}

func (r *readOp) complete() {
	c, h, end, done := r.c, r.h, r.end, r.done
	r.h, r.done = nil, nil
	c.freeReads = append(c.freeReads, r)
	h.trimRA(end)
	done()
}

func min64ra(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// extendRA issues prefetch RPCs for up to n chunks starting at from.
func (h *Handle) extendRA(from, n int64) {
	cs := h.Ino.StripeSize
	if h.ra == nil {
		h.ra = make(map[int64]*raChunk)
	}
	for k := int64(0); k < n; k++ {
		chunk := from + k*cs
		if chunk >= h.Ino.Size {
			return
		}
		if _, ok := h.ra[chunk]; ok {
			continue
		}
		length := cs
		if chunk+length > h.Ino.Size {
			length = h.Ino.Size - chunk
		}
		e := &raChunk{end: chunk + length}
		h.ra[chunk] = e
		h.c.cRAPrefetch.Inc()
		h.c.dataOp(h, chunk, length, false, func() {
			e.done = true
			for _, w := range e.waiters {
				w()
			}
			e.waiters = nil
		})
	}
}

// trimRA drops fully consumed chunks behind the stream position.
func (h *Handle) trimRA(consumed int64) {
	for chunk, e := range h.ra {
		if e.done && e.end <= consumed {
			delete(h.ra, chunk)
		}
	}
}
