// Package lustre implements a discrete-event model of a Lustre-like parallel
// file system: a metadata server (MDS) with its metadata target (MDT), object
// storage servers (OSS) each holding object storage targets (OSTs), and
// clients that stripe file data across OSTs and issue RPCs over the shared
// network.
//
// The file system has one layout, the paper's §IV cluster: the MDS on node
// "mds", three OSS nodes "oss0"–"oss2" with two OSTs each, and seven client
// nodes "c0"–"c6" (Clients). New builds it from an hw.Profile, reading the
// profile's disk model and NIC speed; every other Lustre parameter,
// the server costs included, is a constant of this package at Lustre 2.12's
// defaults or the paper testbed's values.
//
// The model reproduces the mechanisms behind the paper's observed
// interference patterns:
//
//   - competing streams on one OST turn sequential disk access into
//     seek-bound access (Table I, read-vs-read);
//   - OSS write-back caching with read-priority dispatch makes reads hurt
//     writes far more than writes hurt reads (Table I asymmetry);
//   - metadata-heavy workloads contend on MDS service threads, the MDT
//     journal, and the server inode cache (Table I, mdt rows/columns);
//   - all bulk data shares per-node NIC bandwidth max-min fairly.
package lustre

import (
	"slices"

	"quanterference/internal/sim"
)

// Lustre parameters no hardware profile varies, fixed at Lustre 2.12's
// defaults on the paper's testbed.
const (
	// stripeSize is the striping unit (1 MiB).
	stripeSize int64 = 1 << 20
	// defaultStripeCount is the number of OSTs a new file is striped over
	// when Create does not override it (1, the Lustre default).
	defaultStripeCount = 1
	// maxRPCBytes caps the bulk payload of a single OST RPC (1 MiB,
	// matching max_pages_per_rpc).
	maxRPCBytes int64 = 1 << 20
	// maxRPCsInFlight limits concurrent RPCs per client per target (8,
	// matching max_rpcs_in_flight).
	maxRPCsInFlight = 8
	// ossThreads is the service-thread count per OSS.
	ossThreads = 16
	// mdsThreads is the effective metadata-service parallelism: 4, matching
	// the testbed MDS's physical cores — metadata handling is CPU-bound, so
	// cores, not Lustre's nominal thread count, set the real concurrency.
	mdsThreads = 4
	// mdtJournalSectors is the journal write size per namespace-mutating
	// metadata op (8 sectors = 4 KiB).
	mdtJournalSectors int64 = 8
	// inodeReadSectors is the MDT read size on an inode-cache miss.
	inodeReadSectors int64 = 8
	// flushBatch is how many dirty extents the flusher keeps outstanding in
	// the block queue, enabling merging.
	flushBatch = 16
	// reqMsgBytes is the size of RPC request/response headers (1 KiB).
	reqMsgBytes int64 = 1024
	// rpcRetryLimit bounds resends per bulk RPC once SetRPCTimeout arms
	// timeouts. The final attempt rides to completion without a timeout,
	// so operations always finish eventually.
	rpcRetryLimit = 4
	// rpcBackoffBase is the first retry delay; attempt k waits base*2^k
	// plus a deterministic jitter in [0, base*2^k) drawn from the client's
	// RNG.
	rpcBackoffBase = 50 * sim.Millisecond
)

// The file system's RNG streams start from fixed seeds, so the profile and
// the workloads alone fix a run: fsSeed derives every storage target's disk
// seed, and clientSeed, mixed with the node name, each client's
// retry-jitter stream.
const (
	fsSeed     = 0x10557
	clientSeed = 0xc11e27
)

// Server costs of the paper's testbed. No hardware profile varies them.
const (
	// mdsOpCPU is the CPU time per metadata operation.
	mdsOpCPU = 200 * sim.Microsecond
	// ossOpCPU is the CPU time an OSS thread spends per bulk RPC.
	ossOpCPU = 50 * sim.Microsecond
	// writebackLimit is the per-OST dirty-data cap: writes beyond it
	// throttle to the disk drain rate. 16 MiB is scaled to this package's
	// scaled-down workloads the same way real servers' dirty limits relate
	// to real IO500 volumes (roughly a tenth of what one benchmark phase
	// writes).
	writebackLimit int64 = 16 << 20
	// inodeCacheEntries sizes the MDS inode/dentry cache; a miss costs a
	// random MDT read.
	inodeCacheEntries = 4096
)

// PaperNICBps is the testbed's "1 GB/s network interface" (§IV), the NIC
// speed of every node when the profile sets none. Table I's 29-41x
// slowdowns require the rotational disks (~150 MB/s), not the NICs, to be
// the contended resource, so this is one gigabyte per second.
const PaperNICBps = 1e9

// The paper's §IV cluster: one MGS/MDS node, three OSS nodes with two OSTs
// each, and seven client nodes, registered on the network in that order.
const (
	mdsNode    = "mds"
	ostsPerOSS = 2
)

var (
	ossNodes    = []string{"oss0", "oss1", "oss2"}
	clientNodes = []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6"}
)

// Clients returns the compute nodes, c0 through c6; each runs a client.
func Clients() []string { return slices.Clone(clientNodes) }
