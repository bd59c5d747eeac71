// Package workload defines the operation model and the runner that executes
// application I/O streams against the simulated file system.
//
// A workload is a set of ranks, each with a deterministic operation sequence
// produced by a Generator. The Runner plays every rank concurrently (ops
// within a rank are sequential, like a blocking POSIX I/O loop in an MPI
// rank), emits a trace Record per completed operation — the client-side
// monitor's raw input — and can loop forever to act as an interference
// workload.
package workload

import (
	"fmt"

	"quanterference/internal/lustre"
	"quanterference/internal/sim"
)

// Kind is an operation type.
type Kind int

const (
	Read Kind = iota
	Write
	Open
	Close
	Stat
	Create
	Unlink
	Mkdir
	Compute
)

var kindNames = [...]string{
	"read", "write", "open", "close", "stat", "create", "unlink", "mkdir", "compute",
}

func (k Kind) String() string { return kindNames[k] }

// IsIO reports whether the op reaches the file system at all.
func (k Kind) IsIO() bool { return k != Compute }

// Op is one operation in a rank's stream.
type Op struct {
	Kind   Kind
	Path   string
	Offset int64
	Size   int64
	// StripeCount applies to Create (0 = file system default).
	StripeCount int
	// Dur applies to Compute.
	Dur sim.Time
}

// Record is one completed I/O operation, the unit of client-side tracing
// (the analogue of a Darshan DXT entry).
type Record struct {
	Workload string
	Rank     int
	// Iter and Seq identify the op within the rank's stream across loop
	// iterations; (Rank, Iter, Seq) is the key used to match operations
	// between a baseline and an interference run.
	Iter int
	Seq  int
	Op   Op
	// Start and End are simulated timestamps.
	Start sim.Time
	End   sim.Time
	// Targets are the storage target indices the op touched
	// (OST ids, or the MDT index for metadata ops). Records may share
	// the slice: treat it as read-only.
	Targets []int
}

// Duration returns the op's simulated latency.
func (r Record) Duration() sim.Time { return r.End - r.Start }

// Generator produces the op stream for one rank of a workload.
type Generator interface {
	// Name identifies the workload type (e.g. "ior-easy-write").
	Name() string
	// Ops returns rank r's full operation sequence for one iteration.
	Ops(rank int) []Op
	// Prepare pre-creates whatever on-disk state the ops consume (for
	// read-type workloads, the files written by an earlier phase). It
	// runs instantly before the workload starts.
	Prepare(fs *lustre.FS)
}

// Runner executes a Generator's ranks on the file system.
type Runner struct {
	FS   *lustre.FS
	Name string
	// Nodes carries the compute nodes; ranks are placed round-robin.
	Nodes []string
	Ranks int
	Gen   Generator
	// Loop restarts each rank's stream when it ends (interference mode).
	Loop bool
	// OnRecord observes every completed I/O op (may be nil).
	OnRecord func(Record)
	// OnDone fires when every rank has finished: its stream ended (with
	// Loop, only an empty stream ends) or the runner stopped. May be nil.
	OnDone func()
	// WriteViaFor, when set, supplies a per-node write route that replaces
	// direct client writes (e.g. that node's own burst buffer, bb.Tier's
	// Route). It is resolved once per rank with the rank's compute node;
	// returning nil falls back to direct client writes. A route must
	// eventually call done.
	WriteViaFor func(node string) func(h *lustre.Handle, off, length int64, done func())

	stopped bool
	active  int
	started bool
	// ioOps counts the I/O ops in one pass of every rank's stream.
	ioOps int
	// mdt is the Targets of every metadata record, shared by all of them.
	mdt []int

	paused    bool
	held      []func()
	heldBytes int64
}

// Stop makes every rank halt after its in-flight operation.
func (r *Runner) Stop() { r.stopped = true }

// Pause holds every rank at its next operation boundary: in-flight
// operations complete, but no rank issues another op until Resume. Held
// continuations queue FIFO (deterministic release order), and the byte sizes
// of the I/O ops held at the gate accumulate into HeldBytes — the "bytes
// deferred" a defer/reschedule mitigation policy reports. Pausing an already
// paused runner is a no-op.
func (r *Runner) Pause() { r.paused = true }

// Resume lifts a Pause: held ranks re-enter their streams in the order they
// arrived at the gate, and HeldBytes resets to zero. Ranks stopped while
// held exit instead of executing. Resuming a runner that is not paused is a
// no-op.
func (r *Runner) Resume() {
	if !r.paused {
		return
	}
	r.paused = false
	r.heldBytes = 0
	held := r.held
	r.held = nil
	for _, cont := range held {
		cont()
	}
}

// Paused reports whether the pause gate is closed.
func (r *Runner) Paused() bool { return r.paused }

// HeldBytes is the total I/O volume (op sizes) of operations currently held
// at the pause gate. It resets on Resume.
func (r *Runner) HeldBytes() int64 { return r.heldBytes }

// Running reports whether any rank is still executing.
func (r *Runner) Running() bool { return r.active > 0 }

// IOOps is the number of I/O operations in one pass of every rank's stream,
// known once Start has built the streams: a runner without Loop emits at
// most this many records, so a caller can size its record buffer once.
func (r *Runner) IOOps() int { return r.ioOps }

// Start prepares the generator and launches all ranks.
func (r *Runner) Start() {
	if r.started {
		panic("workload: runner started twice")
	}
	r.started = true
	if r.Ranks <= 0 || len(r.Nodes) == 0 {
		panic("workload: runner needs ranks and nodes")
	}
	r.Gen.Prepare(r.FS)
	r.mdt = []int{r.FS.MDTIndex()}
	r.active = r.Ranks
	for rank := 0; rank < r.Ranks; rank++ {
		node := r.Nodes[rank%len(r.Nodes)]
		r.runRank(rank, node)
	}
}

// rank is one rank's position in its op stream. A rank has at most one op
// in flight, so its continuations are bound once when it starts and every
// op reuses them: stepping the stream allocates nothing of its own.
type rank struct {
	r       *Runner
	id      int
	client  *lustre.Client
	write   func(h *lustre.Handle, off, length int64, done func())
	handles map[string]*lustre.Handle
	ops     []Op
	iter    int
	i       int            // index of the op in flight (or held, or next)
	start   sim.Time       // when op i was issued
	h       *lustre.Handle // op i's handle, for data ops

	// Continuations, bound once.
	resume   func()               // re-enter the stream at op i
	computed func()               // a Compute op ended
	metaDone func()               // a metadata op ended
	opened   func(*lustre.Handle) // a Create or Open ended
	dataDone func()               // a Read or Write ended
}

func (r *Runner) runRank(id int, node string) {
	client := r.FS.Client(node)
	k := &rank{
		r: r, id: id, client: client, write: client.Write,
		handles: make(map[string]*lustre.Handle),
		ops:     r.Gen.Ops(id),
	}
	for i := range k.ops {
		if k.ops[i].Kind.IsIO() {
			r.ioOps++
		}
	}
	if r.WriteViaFor != nil {
		if w := r.WriteViaFor(node); w != nil {
			k.write = w
		}
	}
	k.resume, k.computed, k.metaDone = k.exec, k.computeDone, k.metaOpDone
	k.opened, k.dataDone = k.openDone, k.dataOpDone
	k.exec()
}

func (k *rank) finish() {
	r := k.r
	r.active--
	if r.active == 0 && r.OnDone != nil {
		r.OnDone()
	}
}

// exec issues op i, or holds the rank at the pause gate, or ends it.
func (k *rank) exec() {
	r := k.r
	if r.stopped {
		k.finish()
		return
	}
	if r.paused {
		// Hold the rank at the gate; Resume re-enters exec, which rechecks
		// stopped so a Stop while held still wins.
		if k.i < len(k.ops) && k.ops[k.i].Kind.IsIO() {
			r.heldBytes += k.ops[k.i].Size
		}
		r.held = append(r.held, k.resume)
		return
	}
	if k.i >= len(k.ops) {
		// An empty stream ends even when looping: restarting it would
		// issue nothing and never yield to the engine.
		if !r.Loop || len(k.ops) == 0 {
			k.finish()
			return
		}
		k.iter++
		k.i = 0
	}
	op := &k.ops[k.i]
	k.start = r.FS.Eng.Now()
	switch op.Kind {
	case Compute:
		r.FS.Eng.Schedule(op.Dur, k.computed)
	case Create:
		k.client.Create(op.Path, op.StripeCount, k.opened)
	case Open:
		k.client.Open(op.Path, k.opened)
	case Close:
		h := k.handle(op)
		delete(k.handles, op.Path)
		k.client.Close(h, k.metaDone)
	case Stat:
		k.client.Stat(op.Path, k.metaDone)
	case Unlink:
		k.client.Unlink(op.Path, k.metaDone)
	case Mkdir:
		k.client.Mkdir(op.Path, k.metaDone)
	case Read:
		k.h = k.handle(op)
		k.client.Read(k.h, op.Offset, op.Size, k.dataDone)
	case Write:
		k.h = k.handle(op)
		k.write(k.h, op.Offset, op.Size, k.dataDone)
	default:
		panic(fmt.Sprintf("workload: unknown op kind %d", op.Kind))
	}
}

func (k *rank) computeDone() { k.emit(nil) }

func (k *rank) metaOpDone() { k.emit(k.r.mdt) }

func (k *rank) openDone(h *lustre.Handle) {
	k.handles[k.ops[k.i].Path] = h
	k.emit(k.r.mdt)
}

func (k *rank) dataOpDone() {
	op := &k.ops[k.i]
	h := k.h
	k.h = nil
	k.emit(h.Targets(op.Offset, op.Size))
}

// emit records op i and moves on to the next op.
func (k *rank) emit(targets []int) {
	r := k.r
	if op := &k.ops[k.i]; r.OnRecord != nil && op.Kind.IsIO() {
		r.OnRecord(Record{
			Workload: r.Name, Rank: k.id, Iter: k.iter, Seq: k.i,
			Op: *op, Start: k.start, End: r.FS.Eng.Now(),
			Targets: targets,
		})
	}
	k.i++
	k.exec()
}

func (k *rank) handle(op *Op) *lustre.Handle {
	h, ok := k.handles[op.Path]
	if !ok {
		panic(fmt.Sprintf("workload: %s of %q without open handle", op.Kind, op.Path))
	}
	return h
}
