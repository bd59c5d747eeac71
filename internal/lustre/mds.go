package lustre

import (
	"fmt"

	"quanterference/internal/blockqueue"
	"quanterference/internal/disk"
	"quanterference/internal/netsim"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// MetaOp enumerates metadata operation kinds.
type MetaOp int

const (
	MetaCreate MetaOp = iota
	MetaOpen
	MetaStat
	MetaClose
	MetaUnlink
	MetaMkdir
)

var metaOpNames = [...]string{"create", "open", "stat", "close", "unlink", "mkdir"}

func (m MetaOp) String() string { return metaOpNames[m] }

// Inode is a file or directory record. Clients cache Inodes in Handles so
// data RPCs can be routed without re-consulting the MDS.
type Inode struct {
	Path       string
	Dir        bool
	Size       int64
	StripeSize int64
	OSTs       []int  // stripe order
	ObjID      uint64 // per-OST object key

	inodeSector int64
	// The MDS inode cache is an LRU list threaded through the inodes
	// themselves: every cached path is in the namespace, so no side map
	// and no list element is needed.
	cached       bool
	newer, older *Inode
}

// MDSStats are cumulative metadata-server counters.
type MDSStats struct {
	Ops         uint64
	CacheHits   uint64
	CacheMisses uint64
	JournalOps  uint64
}

// MDS is the metadata server with its metadata target (MDT).
type MDS struct {
	Node    string
	Threads *sim.Resource

	ep netsim.Endpoint // Node, resolved once

	eng *sim.Engine
	q   *blockqueue.Queue

	namespace map[string]*Inode
	// The inode cache's LRU list: newest at the front, oldest at the back.
	lruFront, lruBack *Inode
	lruLen            int
	// cacheCap is the inode cache's size: inodeCacheEntries, except in the
	// package's small-cache tests.
	cacheCap int

	journalLen  int64
	journalHead int64
	tableBase   int64
	tableLen    int64
	nextInode   int64
	nextObj     uint64
	nextOST     int

	nOSTs int
	stats MDSStats
	// cpuFactor multiplies the per-op CPU cost (1 = nominal), a
	// fault-injected metadata latency storm.
	cpuFactor float64
	// destroyObjects releases a removed file's OST objects (set by FS).
	destroyObjects func(*Inode)

	// Observability handles; nil unless instrument attached a sink.
	sink     *obs.Sink
	cHits    *obs.Counter
	cMisses  *obs.Counter
	cJournal *obs.Counter
	hOpNS    [len(metaOpNames)]*obs.Histogram
}

func newMDS(eng *sim.Engine, dc disk.Config, node string, ep netsim.Endpoint, nOSTs int, seed int64) *MDS {
	dc.Seed = seed
	d := disk.New(eng, dc)
	q := blockqueue.New(eng, d, blockqueue.Config{})
	const journalLen = 512 << 10 // 256 MiB of journal in sectors
	return &MDS{
		Node:       node,
		ep:         ep,
		Threads:    sim.NewResource(eng, mdsThreads),
		eng:        eng,
		q:          q,
		namespace:  make(map[string]*Inode),
		journalLen: journalLen,
		tableBase:  journalLen,
		tableLen:   (int64(1) << 31) - journalLen,
		cacheCap:   inodeCacheEntries,
		nOSTs:      nOSTs,
		cpuFactor:  1,
	}
}

// instrument registers metadata-server metrics and instruments the MDT's
// block queue + disk: inode-cache hit/miss counters, journal-write counts,
// and one service-latency histogram per metadata op kind (arrival at the
// server through reply, including thread-pool queueing — the MDS op latency
// the paper's mdt rows contend on). Each op becomes a trace span.
func (m *MDS) instrument(s *obs.Sink) {
	m.q.Instrument(s, "mdt")
	m.sink = s
	m.cHits = s.Counter("mds", "mdt", "cache_hits")
	m.cMisses = s.Counter("mds", "mdt", "cache_misses")
	m.cJournal = s.Counter("mds", "mdt", "journal_ops")
	for op, name := range metaOpNames {
		m.hOpNS[op] = s.Histogram("mds", "mdt", name+"_ns", obs.TimeBuckets())
	}
}

// Queue exposes the MDT request queue for the server-side monitor.
func (m *MDS) Queue() *blockqueue.Queue { return m.q }

// Stats returns cumulative counters.
func (m *MDS) Stats() MDSStats { return m.stats }

// SetOpCPUFactor multiplies the per-op CPU cost by factor (>= 1; factor 1
// restores nominal) — a metadata latency storm: every op holds its service
// thread longer, so the thread pool saturates at a fraction of the healthy
// op rate.
func (m *MDS) SetOpCPUFactor(factor float64) {
	if factor < 1 {
		factor = 1
	}
	m.cpuFactor = factor
}

// Lookup returns the inode for path, or nil. It does not simulate any time;
// use Client metadata ops for timed access.
func (m *MDS) Lookup(path string) *Inode { return m.namespace[path] }

// cacheTouch marks ino as recently used, evicting the least recently used
// inode if the cache is over capacity. Returns whether ino was already
// cached.
func (m *MDS) cacheTouch(ino *Inode) bool {
	if ino.cached {
		if m.lruFront != ino {
			m.lruUnlink(ino)
			m.lruPushFront(ino)
		}
		return true
	}
	ino.cached = true
	m.lruLen++
	m.lruPushFront(ino)
	for m.lruLen > m.cacheCap {
		m.cacheDrop(m.lruBack)
	}
	return false
}

// cacheDrop evicts ino from the cache, if it is cached.
func (m *MDS) cacheDrop(ino *Inode) {
	if ino.cached {
		ino.cached = false
		m.lruLen--
		m.lruUnlink(ino)
	}
}

func (m *MDS) lruUnlink(ino *Inode) {
	if ino.newer != nil {
		ino.newer.older = ino.older
	} else {
		m.lruFront = ino.older
	}
	if ino.older != nil {
		ino.older.newer = ino.newer
	} else {
		m.lruBack = ino.newer
	}
	ino.newer, ino.older = nil, nil
}

func (m *MDS) lruPushFront(ino *Inode) {
	ino.older = m.lruFront
	if m.lruFront != nil {
		m.lruFront.newer = ino
	} else {
		m.lruBack = ino
	}
	m.lruFront = ino
}

// journalWrite appends to the (circular) journal; sequential by design.
func (m *MDS) journalWrite(done func()) {
	m.stats.JournalOps++
	m.cJournal.Inc()
	sectors := mdtJournalSectors
	if m.journalHead+sectors > m.journalLen {
		m.journalHead = 0
	}
	at := m.journalHead
	m.journalHead += sectors
	m.q.Submit(disk.Write, at, sectors, done)
}

// inodeRead fetches an inode record from the table (a cache miss).
func (m *MDS) inodeRead(ino *Inode, done func()) {
	m.stats.CacheMisses++
	m.cMisses.Inc()
	m.q.Submit(disk.Read, ino.inodeSector, inodeReadSectors, done)
}

// allocInode creates a namespace entry with a striped layout.
func (m *MDS) allocInode(path string, dir bool, stripeCount int) *Inode {
	if stripeCount <= 0 {
		stripeCount = defaultStripeCount
	}
	if stripeCount > m.nOSTs {
		stripeCount = m.nOSTs
	}
	m.nextInode++
	m.nextObj++
	ino := &Inode{
		Path:       path,
		Dir:        dir,
		StripeSize: stripeSize,
		ObjID:      m.nextObj,
		inodeSector: m.tableBase +
			(m.nextInode*inodeReadSectors)%m.tableLen,
	}
	if !dir {
		ino.OSTs = make([]int, stripeCount)
		for i := 0; i < stripeCount; i++ {
			ino.OSTs[i] = (m.nextOST + i) % m.nOSTs
		}
		m.nextOST = (m.nextOST + 1) % m.nOSTs
	}
	m.namespace[path] = ino
	return ino
}

// handle services one metadata RPC after it has arrived at the server: a
// service thread, the op's CPU time, the op itself (journal write or inode
// read when it needs one), then the reply message back to the client. The
// metaCall steps below are the server's side of the call.
func (m *MDS) handle(call *metaCall) {
	call.arrival = m.eng.Now()
	m.Threads.Acquire(call.granted)
}

func (call *metaCall) compute() {
	m := call.c.fs.mds
	m.stats.Ops++
	opCPU := mdsOpCPU
	if m.cpuFactor > 1 {
		opCPU = sim.Time(float64(opCPU) * m.cpuFactor)
	}
	m.eng.Schedule(opCPU, call.computed)
}

func (call *metaCall) service() {
	m := call.c.fs.mds
	op, path := call.op, call.path
	switch op {
	case MetaCreate, MetaMkdir:
		ino, ok := m.namespace[path]
		if !ok {
			ino = m.allocInode(path, op == MetaMkdir, call.stripeCount)
		}
		m.cacheTouch(ino)
		call.ino = ino
		m.journalWrite(call.served)
	case MetaOpen, MetaStat:
		ino, ok := m.namespace[path]
		if !ok {
			panic(fmt.Sprintf("lustre: %s of missing path %q", op, path))
		}
		call.ino = ino
		if m.cacheTouch(ino) {
			m.stats.CacheHits++
			m.cHits.Inc()
			call.reply()
			return
		}
		m.inodeRead(ino, call.served)
	case MetaClose:
		// Attribute updates are asynchronous in Lustre; CPU only.
		call.ino = m.namespace[path]
		call.reply()
	case MetaUnlink:
		ino, ok := m.namespace[path]
		if !ok {
			panic(fmt.Sprintf("lustre: unlink of missing path %q", path))
		}
		delete(m.namespace, path)
		m.cacheDrop(ino)
		if m.destroyObjects != nil && !ino.Dir {
			m.destroyObjects(ino)
		}
		call.ino = nil
		m.journalWrite(call.served)
	default:
		panic("lustre: unknown metadata op")
	}
}

// reply ends the service: it records the op's latency, frees the thread and
// sends the answer to the client.
func (call *metaCall) reply() {
	m := call.c.fs.mds
	latency := m.eng.Now() - call.arrival
	m.hOpNS[call.op].Observe(float64(latency))
	m.sink.Span("mds", "mdt", call.op.String(), call.arrival, latency)
	m.Threads.Release()
	c := call.c
	c.fs.Net.Transfer(m.ep, c.ep, reqMsgBytes, call.replied)
}
