package lustre

import (
	"fmt"

	"quanterference/internal/hw"
	"quanterference/internal/netsim"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// FS is the assembled parallel file system.
type FS struct {
	Eng *sim.Engine
	Net *netsim.Network

	// rpcTimeout arms bulk-RPC timeouts when positive (SetRPCTimeout).
	rpcTimeout sim.Time
	// readAheadChunks is how many stripe-size chunks a client prefetches
	// ahead of a detected sequential read stream (4, standing in for
	// Lustre's max_read_ahead_mb; 0 disables readahead). Readahead keeps
	// several RPCs in flight per stream, which is what makes competing
	// sequential readers saturate the disks. The two client-read costs are
	// fields only so the package's readahead tests can vary them.
	readAheadChunks int
	// cacheHitTime is the client-side cost of serving a read from
	// already-prefetched data (100 µs: page-cache copy + syscall).
	cacheHitTime sim.Time

	mds     *MDS
	osss    []*OSS
	osts    []*OST
	clients map[string]*Client
}

// New builds the file system on the paper's layout over the given network
// and registers every node on it. The profile supplies the disk model behind
// every OST and the MDT and the NIC speed (PaperNICBps when Net.NICBps is
// 0); the network itself carries the profile's latency, and a burst-buffer
// tier (internal/bb) its BB section.
func New(eng *sim.Engine, net *netsim.Network, p hw.Profile) *FS {
	fs := &FS{
		Eng:             eng,
		Net:             net,
		readAheadChunks: 4,
		cacheHitTime:    100 * sim.Microsecond,
		clients:         make(map[string]*Client),
	}
	nicBps := p.Net.NICBps
	if nicBps == 0 {
		nicBps = PaperNICBps
	}
	mdsEP := net.AddNode(mdsNode, nicBps)
	rng := sim.NewRNG(fsSeed)
	ostID := 0
	for _, node := range ossNodes {
		oss := &OSS{Node: node, Threads: sim.NewResource(eng, ossThreads), ep: net.AddNode(node, nicBps)}
		for i := 0; i < ostsPerOSS; i++ {
			ost := newOST(eng, p.Disk, ostID, oss, rng.DeriveSeed(int64(ostID)))
			oss.OSTs = append(oss.OSTs, ost)
			fs.osts = append(fs.osts, ost)
			ostID++
		}
		fs.osss = append(fs.osss, oss)
	}
	fs.mds = newMDS(eng, p.Disk, mdsNode, mdsEP, len(fs.osts), rng.DeriveSeed(9999))
	// Unlink destroys the file's OST objects (asynchronous in real Lustre;
	// modelled as immediate metadata cleanup — sectors are not reclaimed,
	// like deferred ldiskfs truncation).
	fs.mds.destroyObjects = func(ino *Inode) {
		for _, ostID := range ino.OSTs {
			delete(fs.osts[ostID].objects, ino.ObjID)
		}
	}
	for _, cn := range clientNodes {
		fs.clients[cn] = newClient(fs, cn, net.AddNode(cn, nicBps))
	}
	return fs
}

// SetRPCTimeout arms per-bulk-RPC timeouts on every client (cf. Lustre's
// obd_timeout): an RPC outstanding longer than d is abandoned and resent
// after a backoff, at most rpcRetryLimit (4) times, the first after
// rpcBackoffBase (50 ms). d <= 0 (the default) disables timeouts — the
// healthy-cluster model — so it is typically set alongside fault injection.
// Metadata RPCs are never resent (a replayed unlink or create is not
// idempotent in this model). It applies to RPCs issued after the call.
func (fs *FS) SetRPCTimeout(d sim.Time) { fs.rpcTimeout = d }

// Instrument registers observability metrics for every server and client on
// the sink: per-OST write-back cache and block-layer/disk metrics, MDS op
// latency histograms and cache counters, and per-client readahead
// efficiency. Instances are named after TargetName ("ost0".."ostN", "mdt")
// and client node names. Attach the sink before running workloads; events
// prior to instrumentation are not counted.
func (fs *FS) Instrument(s *obs.Sink) {
	for i, o := range fs.osts {
		o.instrument(s, fs.TargetName(i))
	}
	fs.mds.instrument(s)
	for _, cn := range clientNodes {
		fs.clients[cn].instrument(s)
	}
}

// Client returns the client on the named compute node.
func (fs *FS) Client(node string) *Client {
	c, ok := fs.clients[node]
	if !ok {
		panic(fmt.Sprintf("lustre: no client on node %q", node))
	}
	return c
}

// NumOSTs returns the object storage target count.
func (fs *FS) NumOSTs() int { return len(fs.osts) }

// NumTargets returns OST count + 1 (the MDT).
func (fs *FS) NumTargets() int { return len(fs.osts) + 1 }

// MDTIndex is the target index of the metadata target.
func (fs *FS) MDTIndex() int { return len(fs.osts) }

// TargetName renders a target index for logs: "ost3" or "mdt".
func (fs *FS) TargetName(i int) string {
	if i == fs.MDTIndex() {
		return "mdt"
	}
	return fmt.Sprintf("ost%d", i)
}

// OST returns the i-th object storage target.
func (fs *FS) OST(i int) *OST { return fs.osts[i] }

// OSSs returns the object storage servers.
func (fs *FS) OSSs() []*OSS { return fs.osss }

// MDS returns the metadata server.
func (fs *FS) MDS() *MDS { return fs.mds }

// Populate instantly creates a file of the given size with data laid out on
// its OSTs, consuming no simulated time. Use it to pre-create the files that
// read-only workloads consume, standing in for data written in prior runs.
func (fs *FS) Populate(path string, size int64, stripeCount int) *Inode {
	ino, ok := fs.mds.namespace[path]
	if !ok {
		ino = fs.mds.allocInode(path, false, stripeCount)
	}
	// A just-written file is warm in the MDS cache, exactly as if the
	// preceding (unsimulated) write phase had created it.
	fs.mds.cacheTouch(ino)
	if size > ino.Size {
		ino.Size = size
	}
	if size > 0 {
		h := &Handle{Ino: ino}
		for _, ch := range h.chunks(0, size) {
			fs.osts[ch.ost].populate(ino.ObjID, ch.objOff, ch.length)
		}
	}
	return ino
}

// PopulateDir instantly creates a directory entry.
func (fs *FS) PopulateDir(path string) *Inode {
	ino, ok := fs.mds.namespace[path]
	if !ok {
		ino = fs.mds.allocInode(path, true, 0)
	}
	return ino
}
