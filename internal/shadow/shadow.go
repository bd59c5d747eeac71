// Package shadow owns the champion/challenger promotion gate (Gate) and the
// live-traffic shadow evaluation that feeds it: an Evaluator scores up to N
// challenger frameworks against the serving champion on the traffic the
// champion actually answers, and turns those scores into a gate verdict
// that the fleet coordinator consumes before a fleet-wide rollout. The
// continuous-learning loop (internal/online) gates each retrained candidate
// through the same Gate as its one challenger. The package imports neither
// the serving layer nor the loop: serve taps an *Evaluator directly
// (serve.Config.Shadow) and serves its Status on /v1/shadow.
//
// The design constraint is that the champion's hot path must not notice the
// shadow at all:
//
//   - Mirror is the serving layer's tap. It is a single non-blocking send of
//     a small struct into a pre-allocated channel — no locks, no
//     allocations, never a stall. When the queue is full the event is
//     dropped and counted (drop-counting backpressure); a slow or wedged
//     evaluator can therefore cost mirror coverage, never champion latency.
//
//   - All real work — joining delayed labels to mirrored events, running the
//     challengers' predictions, scoring — happens on the labeling caller's
//     goroutine (Label/Verdict), exactly like online.Loop's single-goroutine
//     contract. Challenger inference is as expensive as N extra Predicts,
//     but it is paid off the serving path.
//
//   - Labels join mirrored events by matrix content hash, so the label feed
//     needs no request IDs from the serving layer, and the join table — one
//     FIFO of at most 4096 pending events, oldest evicted first — keeps only
//     the hash and the served class, never the matrix. Only traffic that was
//     actually mirrored is scored: a label whose matrix was never served (or
//     whose mirror event was dropped or evicted) counts as unmatched,
//     keeping every candidate judged on the same live sample set.
//
// The gate is fixed: at most 8 challengers, and a winner needs 32 labeled
// samples behind its score and the champion's and a 0.01 accuracy lead
// (SetMargin moves the lead for the forced-reject drill).
//
// Determinism: per-candidate scores are cumulative totals (permutation
// invariant in the mirrored set), labels are scored in the caller's feed
// order, and the gate's tie-breaking is seeded — so same-seed episodes with
// the same served traffic and label feed produce byte-identical verdict
// timelines even when the mirror events arrived from dozens of concurrent
// serving goroutines.
//
// Concurrency: every method is safe for concurrent use — Mirror is called
// from serving batcher goroutines, Status and Sync from /v1/shadow handler
// goroutines. But verdict *determinism* additionally requires a single label
// feeder: Label/Verdict interleavings from multiple goroutines would make
// the scoreboard's sample sets race-order dependent, so keep the label feed
// on one goroutine (the episode driver or continuous-learning loop that
// owns the evaluator), like online.Loop.
package shadow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"quanterference/internal/core"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
)

// Sentinel errors. Match with errors.Is.
var (
	// ErrDuplicateChallenger reports an AddChallenger name already in use.
	ErrDuplicateChallenger = errors.New("shadow: duplicate challenger name")

	// ErrShapeMismatch reports a challenger whose input shape or class count
	// differs from the champion's — it could never serve the same traffic.
	ErrShapeMismatch = errors.New("shadow: challenger shape mismatch")

	// ErrTooManyChallengers reports an AddChallenger beyond the cap of 8
	// challengers.
	ErrTooManyChallengers = errors.New("shadow: too many challengers")
)

// The evaluator's fixed bounds and gate.
const (
	// pendingCap bounds the label-join FIFO of mirrored-but-unlabeled
	// events; the oldest pending event is evicted first.
	pendingCap = 4096
	// maxChallengers caps the challenger set.
	maxChallengers = 8
	// minSamples is how many labeled samples the champion and the winning
	// challenger each need before a verdict can promote.
	minSamples = 32
	// defaultMargin is how much live accuracy the winning challenger must
	// beat the champion by to be promoted, until SetMargin moves it.
	defaultMargin = 0.01
)

// Config tunes an Evaluator. The zero value is usable.
type Config struct {
	// Seed drives the gate's deterministic tie-breaking.
	Seed int64
	// QueueCap bounds the async mirror queue (default 1024). Offers beyond
	// it are dropped and counted, never blocked on.
	QueueCap int
	// Sink receives the evaluator's counters and gauges. Pass the serving
	// layer's sink to surface them on /v1/stats; nil allocates a private
	// sink so Stats always works.
	Sink *obs.Sink
}

func (c *Config) applyDefaults() {
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Sink == nil {
		c.Sink = obs.New()
	}
}

// event is one mirrored champion reply: the served matrix and the class the
// champion answered with. Only the bounded mirror queue holds matrices, by
// reference — the HTTP serving path allocates a fresh matrix per request, and
// in-process callers must not mutate a matrix after handing it to Predict.
type event struct {
	mat   window.Matrix
	class int
}

// pend is one mirrored event awaiting its delayed label, held by value in
// the join FIFO. It keeps the matrix's content hash, not the matrix: Label
// scores the matrix its caller passes in, which a matching hash says is the
// one that was served, so the join table's memory does not grow with the
// matrix size.
type pend struct {
	hash     uint64
	class    int32
	consumed bool
}

// tally accumulates one candidate's outcomes on the labeled mirror stream.
type tally struct {
	samples int
	hits    int
	ceSum   float64
}

func (s *tally) observe(correct bool, ce float64) {
	s.samples++
	if correct {
		s.hits++
	}
	s.ceSum += ce
}

func (s *tally) accuracy() float64 {
	if s.samples == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.samples)
}

func (s *tally) meanCE() float64 {
	if s.samples == 0 {
		return 0
	}
	return s.ceSum / float64(s.samples)
}

func (s *tally) score(name string) Score {
	return Score{Name: name, Samples: s.samples, Accuracy: s.accuracy(), CE: s.meanCE()}
}

type challenger struct {
	name string
	fw   *core.Framework // private evaluation clone, owned by the evaluator
	sc   tally
}

// Evaluator scores a champion and its challengers on mirrored live traffic.
// Create with New, tap it into a serving layer (serve.Config.Shadow), feed
// delayed labels with Label, and read verdicts with Verdict.
type Evaluator struct {
	cfg   Config
	queue chan event

	// Offer-side counters are atomics: Mirror must never take the mutex.
	mirrored atomic.Uint64
	dropped  atomic.Uint64

	mu          sync.Mutex
	margin      float64
	champion    *core.Framework // private evaluation clone of the served champion
	champ       tally
	challengers []*challenger
	fifo        []pend // mirrored events in arrival order; fifo[:head] are gone
	head        int
	live        int // unconsumed events awaiting a label
	dead        int // consumed events still occupying fifo slots past head
	labeled     uint64
	unmatched   uint64
	evicted     uint64
	mismatches  uint64
	verdicts    uint64

	mMirrored   *obs.Counter
	mDropped    *obs.Counter
	mLabeled    *obs.Counter
	mUnmatched  *obs.Counter
	mEvicted    *obs.Counter
	mMismatches *obs.Counter
	mVerdicts   *obs.Counter
	gQueueDepth *obs.Gauge
	gPending    *obs.Gauge
}

// New builds an evaluator around the serving champion. The evaluator clones
// the champion for private scoring (Predict reuses scratch and the served
// instance belongs to its batcher), so the caller may keep serving it.
func New(champion *core.Framework, cfg Config) (*Evaluator, error) {
	cfg.applyDefaults()
	clone, err := champion.Clone()
	if err != nil {
		return nil, fmt.Errorf("shadow: cloning champion: %w", err)
	}
	return &Evaluator{
		cfg:      cfg,
		queue:    make(chan event, cfg.QueueCap),
		margin:   defaultMargin,
		champion: clone,

		mMirrored:   cfg.Sink.Counter("shadow", "", "mirrored"),
		mDropped:    cfg.Sink.Counter("shadow", "", "mirror_drops"),
		mLabeled:    cfg.Sink.Counter("shadow", "", "labeled"),
		mUnmatched:  cfg.Sink.Counter("shadow", "", "labels_unmatched"),
		mEvicted:    cfg.Sink.Counter("shadow", "", "pending_evicted"),
		mMismatches: cfg.Sink.Counter("shadow", "", "mirror_mismatches"),
		mVerdicts:   cfg.Sink.Counter("shadow", "", "verdicts"),
		gQueueDepth: cfg.Sink.Gauge("shadow", "", "mirror_queue_depth"),
		gPending:    cfg.Sink.Gauge("shadow", "", "pending"),
	}, nil
}

// AddChallenger registers one challenger under a unique name. The framework
// is cloned (the evaluator owns its copy; the caller keeps the original for
// the eventual promotion) and must read the champion's input shape and class
// count.
func (e *Evaluator) AddChallenger(name string, fw *core.Framework) error {
	if name == "" {
		return errors.New("shadow: empty challenger name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.challengers) >= maxChallengers {
		return fmt.Errorf("%w: %d registered, cap %d", ErrTooManyChallengers, len(e.challengers), maxChallengers)
	}
	for _, c := range e.challengers {
		if c.name == name {
			return fmt.Errorf("%w: %q", ErrDuplicateChallenger, name)
		}
	}
	ct, cf := e.champion.Dims()
	nt, nf := fw.Dims()
	if nt != ct || nf != cf || fw.Classes() != e.champion.Classes() {
		return fmt.Errorf("%w: %q is %dx%d/%d classes, champion is %dx%d/%d classes",
			ErrShapeMismatch, name, nt, nf, fw.Classes(), ct, cf, e.champion.Classes())
	}
	clone, err := fw.Clone()
	if err != nil {
		return fmt.Errorf("shadow: cloning challenger %q: %w", name, err)
	}
	e.challengers = append(e.challengers, &challenger{name: name, fw: clone})
	return nil
}

// Challengers returns the registered challenger names in registration order.
func (e *Evaluator) Challengers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, len(e.challengers))
	for i, c := range e.challengers {
		names[i] = c.name
	}
	return names
}

// Mirror feeds one served reply into the async mirror queue — the serving
// layer's tap, called by the batcher right before it answers the caller. It
// is one non-blocking channel send: when the queue is full the event is
// dropped and counted, and the champion's reply is never delayed. Safe for
// any number of concurrent callers.
func (e *Evaluator) Mirror(mat window.Matrix, class int) {
	select {
	case e.queue <- event{mat: mat, class: class}:
		e.mirrored.Add(1)
		e.mMirrored.Inc()
		e.gQueueDepth.Set(float64(len(e.queue)))
	default:
		e.dropped.Add(1)
		e.mDropped.Inc()
	}
}

// matHash is the label-join key: fnv64a over the matrix's float64 bits with
// row separators, so ([a b],[c]) and ([a],[b c]) hash apart.
func matHash(mat window.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range mat {
		b[0] = 0xff // row separator
		h.Write(b[:1])
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// drainLocked moves everything queued into the join FIFO, evicting the
// oldest pending events beyond pendingCap. Caller holds e.mu.
func (e *Evaluator) drainLocked() {
	for {
		select {
		case ev := <-e.queue:
			e.fifo = append(e.fifo, pend{hash: matHash(ev.mat), class: int32(ev.class)})
			e.live++
		default:
			e.evictLocked()
			e.gQueueDepth.Set(float64(len(e.queue)))
			e.gPending.Set(float64(e.live))
			return
		}
	}
}

func (e *Evaluator) evictLocked() {
	for e.live > pendingCap && e.head < len(e.fifo) {
		p := e.fifo[e.head]
		e.head++
		if p.consumed {
			e.dead--
			continue
		}
		e.live--
		e.evicted++
		e.mEvicted.Inc()
	}
	// Compact once dropped-prefix and consumed slots dominate, so a long
	// episode never grows the slice without bound — it holds at most about
	// 2 × pendingCap entries: live entries are the only ones kept, and a
	// labeled stream that keeps up stays near-empty.
	if e.head+e.dead >= len(e.fifo)/2 && e.head+e.dead > 0 {
		kept := e.fifo[:0]
		for _, p := range e.fifo[e.head:] {
			if !p.consumed {
				kept = append(kept, p)
			}
		}
		e.fifo, e.head, e.dead = kept, 0, 0
	}
}

// Sync drains the mirror queue into the join table without scoring
// anything. Callers that need every already-answered request joinable (the
// determinism tests, an episode driver about to read a verdict) call Sync
// after their replies arrive: the batcher mirrors before it answers, so a
// received reply guarantees the event is either queued or already dropped.
func (e *Evaluator) Sync() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.drainLocked()
}

// Label joins one delayed ground-truth outcome to its mirrored event and
// scores every candidate on it. The matrix must be the one that was served:
// the join is by content hash, and the candidates are scored on mat itself;
// degradation is the measured slowdown, binned under the champion's label
// bins. Returns true when the label matched a mirrored event; false (and an
// unmatched count) when the traffic was never mirrored — dropped, evicted,
// or never served — so candidates are only ever compared on the same
// samples.
func (e *Evaluator) Label(mat window.Matrix, degradation float64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.drainLocked()

	// Join the oldest unconsumed event with this hash: a scan of at most
	// about 2 × pendingCap entries, paid here beside the candidates'
	// predictions rather than on the serving path.
	h := matHash(mat)
	var p *pend
	for i := e.head; i < len(e.fifo); i++ {
		if q := &e.fifo[i]; q.hash == h && !q.consumed {
			p = q
			break
		}
	}
	if p == nil {
		e.unmatched++
		e.mUnmatched.Inc()
		return false
	}
	p.consumed = true
	e.live--
	e.dead++
	e.gPending.Set(float64(e.live))

	truth := e.champion.Bins.Label(degradation)
	cls, probs := e.champion.Predict(mat)
	if cls != int(p.class) {
		// The mirrored reply disagrees with our champion clone: the serving
		// layer promoted a new champion without a Reset. Count it — a
		// mounting mismatch rate means the scoreboard is judging the wrong
		// incumbent.
		e.mismatches++
		e.mMismatches.Inc()
	}
	e.champ.observe(cls == truth, crossEntropy(probs, truth))
	for _, c := range e.challengers {
		ccls, cprobs := c.fw.Predict(mat)
		c.sc.observe(ccls == truth, crossEntropy(cprobs, truth))
	}
	e.labeled++
	e.mLabeled.Inc()
	return true
}

func crossEntropy(probs []float64, truth int) float64 {
	return -math.Log(math.Max(probs[truth], 1e-12))
}

// SetMargin adjusts the promotion margin (0.01 until set) between verdicts:
// how much live accuracy the winning challenger must beat the champion by.
// RejectAll force-rejects every challenger, the rollback drill quantfleet
// -shadow exercises.
func (e *Evaluator) SetMargin(m float64) {
	e.mu.Lock()
	e.margin = m
	e.mu.Unlock()
}

// Verdict evaluates the gate at the current scoreboard: the ranked
// challengers against the champion, under the current margin and the
// 32-sample minimum. The result is a pure function of (seed, labeled
// outcomes), so same-seed replays of the same stream emit identical
// verdicts.
func (e *Evaluator) Verdict() GateResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	scores := make([]Score, len(e.challengers))
	for i, c := range e.challengers {
		scores[i] = c.sc.score(c.name)
	}
	g := Gate(e.cfg.Seed, e.champ.score("champion"), scores, e.margin, minSamples)
	e.verdicts++
	e.mVerdicts.Inc()
	return g
}

// Reset starts a new evaluation epoch around a freshly promoted champion:
// the challenger set, every score, and the pending join table are cleared,
// and the champion clone is replaced. Queued mirror events from the old
// epoch are discarded.
func (e *Evaluator) Reset(champion *core.Framework) error {
	clone, err := champion.Clone()
	if err != nil {
		return fmt.Errorf("shadow: cloning champion: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		select {
		case <-e.queue:
		default:
			e.champion = clone
			e.champ = tally{}
			e.challengers = nil
			e.fifo, e.head, e.live, e.dead = e.fifo[:0], 0, 0, 0
			e.gQueueDepth.Set(0)
			e.gPending.Set(0)
			return nil
		}
	}
}

// Status is the /v1/shadow response body: the live champion/challenger
// scoreboard plus the mirror-plumbing counters.
type Status struct {
	Champion    Score   `json:"champion"`
	Challengers []Score `json:"challengers,omitempty"`
	// Mirrored and Dropped count mirror offers accepted / shed by the
	// bounded queue; QueueDepth is the queue's current backlog.
	Mirrored   uint64 `json:"mirrored"`
	Dropped    uint64 `json:"dropped"`
	QueueDepth int    `json:"queue_depth"`
	// Pending counts mirrored events still awaiting their delayed label.
	Pending int `json:"pending"`
	// Labeled, Unmatched, and Evicted count labels scored, labels with no
	// mirrored event to join, and pending events evicted unlabeled.
	Labeled   uint64 `json:"labeled"`
	Unmatched uint64 `json:"unmatched"`
	Evicted   uint64 `json:"evicted"`
	// Mismatches counts labeled events whose mirrored reply disagreed with
	// the evaluator's champion clone (a stale-scoreboard signal).
	Mismatches uint64 `json:"mirror_mismatches"`
	// Verdicts counts gate evaluations this epoch.
	Verdicts uint64 `json:"verdicts"`
	// MinSamples and Margin are the gate's current promotion bar.
	MinSamples int     `json:"min_samples"`
	Margin     float64 `json:"margin"`
}

// Status snapshots the scoreboard and counters. Safe for any goroutine.
func (e *Evaluator) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		Champion:   e.champ.score("champion"),
		Mirrored:   e.mirrored.Load(),
		Dropped:    e.dropped.Load(),
		QueueDepth: len(e.queue),
		Pending:    e.live,
		Labeled:    e.labeled,
		Unmatched:  e.unmatched,
		Evicted:    e.evicted,
		Mismatches: e.mismatches,
		Verdicts:   e.verdicts,
		MinSamples: minSamples,
		Margin:     e.margin,
	}
	for _, c := range e.challengers {
		st.Challengers = append(st.Challengers, c.sc.score(c.name))
	}
	return st
}

// Stats snapshots the evaluator's obs metrics (its private sink unless
// Config.Sink shared one).
func (e *Evaluator) Stats() *obs.Snapshot { return e.cfg.Sink.Snapshot() }
