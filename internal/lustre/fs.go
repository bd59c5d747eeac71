package lustre

import (
	"fmt"

	"quanterference/internal/netsim"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// FS is the assembled parallel file system.
type FS struct {
	Eng *sim.Engine
	Net *netsim.Network

	cfg     Config
	topo    Topology
	mds     *MDS
	osss    []*OSS
	osts    []*OST
	clients map[string]*Client
}

// New builds the file system over the given network, registering every node
// that is not already present.
func New(eng *sim.Engine, net *netsim.Network, topo Topology, cfg Config) *FS {
	cfg.applyDefaults()
	if topo.MDSNode == "" || len(topo.OSS) == 0 || len(topo.Clients) == 0 {
		panic("lustre: incomplete topology")
	}
	fs := &FS{
		Eng:     eng,
		Net:     net,
		cfg:     cfg,
		topo:    topo,
		clients: make(map[string]*Client),
	}
	ensure := func(node string) netsim.Endpoint {
		if !net.HasNode(node) {
			return net.AddNode(node, topo.NICBps)
		}
		return net.Endpoint(node)
	}
	mdsEP := ensure(topo.MDSNode)
	rng := sim.NewRNG(cfg.Seed ^ 0x10557)
	ostID := 0
	for _, spec := range topo.OSS {
		oss := &OSS{Node: spec.Node, Threads: sim.NewResource(eng, cfg.OSSThreads), ep: ensure(spec.Node)}
		for i := 0; i < spec.OSTs; i++ {
			ost := newOST(eng, &fs.cfg, ostID, oss, rng.DeriveSeed(int64(ostID)))
			oss.OSTs = append(oss.OSTs, ost)
			fs.osts = append(fs.osts, ost)
			ostID++
		}
		fs.osss = append(fs.osss, oss)
	}
	fs.mds = newMDS(eng, &fs.cfg, topo.MDSNode, mdsEP, len(fs.osts), rng.DeriveSeed(9999))
	// Unlink destroys the file's OST objects (asynchronous in real Lustre;
	// modelled as immediate metadata cleanup — sectors are not reclaimed,
	// like deferred ldiskfs truncation).
	fs.mds.destroyObjects = func(ino *Inode) {
		for _, ostID := range ino.OSTs {
			delete(fs.osts[ostID].objects, ino.ObjID)
		}
	}
	for _, cn := range topo.Clients {
		fs.clients[cn] = newClient(fs, cn, ensure(cn))
	}
	return fs
}

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
	for _, cn := range fs.topo.Clients {
		if c, ok := fs.clients[cn]; ok {
			c.instrument(s)
		}
	}
}

// Config returns the effective configuration.
func (fs *FS) Config() Config { return fs.cfg }

// Topology returns the cluster layout.
func (fs *FS) Topology() Topology { return fs.topo }

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
