// Package fleet is the horizontal scaling layer over internal/serve: a
// coordinator that fronts N replica servers speaking the versioned /v1/ API,
// adding what a single quantserve cannot provide — routing, failover,
// fleet-wide health, federated retraining, and safe rollouts — without
// touching the serving layer's concurrency model.
//
//   - Routing is seeded rendezvous hashing: each request key ranks every
//     replica by a deterministic hash score, and the request walks that
//     preference order until a replica answers. Same seed + same replica
//     names = same ranking, so a fleet episode replays bit-identically. A
//     replica that is unreachable or draining simply loses its turn
//     (failover); the next-ranked replica absorbs its keys with no
//     coordinator state to reconverge.
//
//   - Health aggregation reads each replica's /v1/healthz shape
//     advertisement and reports whether the fleet is consistent: every
//     healthy replica on the same API version, model digest, forecaster
//     digest, and input shape. Mixed fleets are visible immediately and
//     refuse promotion.
//
//   - Model versioning rides on the weight digests the serving layer stamps
//     (ml.WeightsDigest): the coordinator compares the digest a replica
//     advertises over HTTP with the one its admin plane reports, so a
//     wrongly-wired replica (data plane and control plane pointing at
//     different processes) is caught before a rollout, not after.
//
//   - Federated retraining: each replica's online.Loop exports its labeled
//     reservoir under the replica's name, and MergedDataset folds the
//     exports through dataset.MergeAll — the canonical order-independent
//     merge — so the retrain corpus digests identically no matter which
//     replica reported first. SaveBuffers/LoadBuffers persist the reservoirs
//     per replica across restarts.
//
//   - Promotion is a rolling, all-or-nothing rollout: replicas are promoted
//     one at a time in registration order, each step preceded by a health +
//     version preflight, and the first failure rolls every already-promoted
//     replica back to its captured incumbent clone. The fleet lands on
//     either "everyone serves the candidate" or "everyone serves the
//     incumbent", never a torn version set. Forecasters are not rolled out:
//     each replica loads its own at startup, and Status flags replicas that
//     started on different ones.
//
// Every routing, promotion, and rollback decision is appended to a timeline
// of plain strings — replica names and digests only, no ports or timestamps
// — which is byte-comparable across same-seed runs; make fleet-smoke pins
// exactly that. The coordinator keeps only the newest 512 lines, so its
// memory does not grow with its traffic.
//
// The coordinator is safe for concurrent Predict/Forecast/Status calls
// (promotions serialize internally), but the timeline's line order is only
// deterministic when requests are issued sequentially, and the reservoir
// operations (MergedDataset, SaveBuffers, LoadBuffers) must not race the
// goroutines feeding the replicas' loops — online.Loop itself is
// single-goroutine.
package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/online"
	"quanterference/internal/serve"
	"quanterference/internal/shadow"
)

// Sentinel errors. Match with errors.Is.
var (
	// ErrAllReplicasFailed reports a request no replica could answer.
	ErrAllReplicasFailed = errors.New("fleet: all replicas failed")

	// ErrPromotionFailed reports a rollout that halted and rolled back.
	ErrPromotionFailed = errors.New("fleet: promotion failed")

	// ErrNoAdmin reports a control-plane operation on a replica registered
	// without an admin handle (routing-only, e.g. quantfleet -status).
	ErrNoAdmin = errors.New("fleet: replica has no admin plane")

	// ErrUnknownReplica reports a Rebind naming no registered replica.
	ErrUnknownReplica = errors.New("fleet: unknown replica")

	// ErrShadowRejected reports a shadow verdict that kept the incumbent:
	// no challenger cleared the margin over the champion at the required
	// sample count, so nothing was rolled out.
	ErrShadowRejected = errors.New("fleet: shadow gate kept the incumbent")
)

// Admin is the control-plane surface of one replica — the in-process handle
// the coordinator promotes and rolls back through. *serve.Server satisfies
// it.
type Admin interface {
	Framework() *core.Framework
	ModelDigest() string
	ReloadFramework(*core.Framework) error
}

// Replica is one serving instance as the coordinator sees it: a name (the
// identity used in routing hashes, timelines, and reservoir run stamps), a
// data plane (the /v1/ HTTP client), an optional admin plane (promotion),
// and an optional continuous-learning loop (labeled reservoir).
type Replica struct {
	name   string
	admin  Admin
	client *serve.Client
	loop   *online.Loop
}

// NewReplica registers a serving instance. admin may be nil for a
// routing-only replica (Status and Predict work; Promote refuses it), and
// loop may be nil when the replica keeps no labeled reservoir.
func NewReplica(name string, admin Admin, client *serve.Client, loop *online.Loop) *Replica {
	if name == "" {
		panic("fleet: empty replica name")
	}
	if client == nil {
		panic("fleet: nil replica client")
	}
	return &Replica{name: name, admin: admin, client: client, loop: loop}
}

// Config tunes the coordinator.
type Config struct {
	// Seed drives the rendezvous routing hash; same seed + same replica
	// names = same key → replica ranking.
	Seed int64
}

// timelineCap is how many timeline lines a coordinator keeps; each line past
// it overwrites the oldest. It sits above the ~200 lines either smoke
// episode writes, so both still print their whole timeline.
const timelineCap = 512

// Coordinator fronts a set of replicas. Create with New.
type Coordinator struct {
	seed int64

	mu       sync.Mutex
	replicas []*Replica
	timeline []string // ring of the newest timelineCap lines
	next     int      // timeline slot the next line overwrites once full
	accepted int
	dropped  int
	retries  int
	lastFail map[string]string

	promoteMu sync.Mutex
}

// New builds a coordinator over the given replicas. Registration order is
// promotion order. Names must be unique.
func New(cfg Config, replicas ...*Replica) (*Coordinator, error) {
	if len(replicas) == 0 {
		return nil, errors.New("fleet: no replicas")
	}
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if seen[r.name] {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", r.name)
		}
		seen[r.name] = true
	}
	return &Coordinator{seed: cfg.Seed, replicas: replicas, lastFail: make(map[string]string)}, nil
}

// Rebind replaces the named replica's handles — how a killed replica
// rejoins the fleet after a restart under the same identity. The routing
// hash depends only on the name, so the restarted replica takes back
// exactly the keys it owned before.
func (c *Coordinator) Rebind(name string, admin Admin, client *serve.Client, loop *online.Loop) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.replicas {
		if r.name == name {
			c.replicas[i] = NewReplica(name, admin, client, loop)
			c.appendLocked("restart " + name)
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrUnknownReplica, name)
}

// Note appends an external event (e.g. "kill r1" from a test harness) to
// the decision timeline so byte-compared episodes can mark actions the
// coordinator itself cannot observe.
func (c *Coordinator) Note(msg string) {
	c.mu.Lock()
	c.appendLocked(msg)
	c.mu.Unlock()
}

// appendLocked adds one timeline line, overwriting the oldest once the ring
// holds timelineCap. Caller holds c.mu.
func (c *Coordinator) appendLocked(line string) {
	if len(c.timeline) < timelineCap {
		c.timeline = append(c.timeline, line)
		return
	}
	c.timeline[c.next] = line
	c.next = (c.next + 1) % timelineCap
}

// Timeline returns a copy of the newest routing/promotion/rollback lines —
// all of them until there are 512, then the latest 512 — oldest first.
// Lines contain replica names and weight digests only — never ports or
// timestamps — so same-seed episodes byte-compare equal.
func (c *Coordinator) Timeline() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.timeline[c.next:]...)
	return append(out, c.timeline[:c.next]...)
}

// Accepted and Dropped count requests the fleet answered / failed outright.
// Retries counts failovers, one per "retry" timeline line, including those
// the timeline ring has since overwritten.
func (c *Coordinator) Accepted() int { c.mu.Lock(); defer c.mu.Unlock(); return c.accepted }
func (c *Coordinator) Dropped() int  { c.mu.Lock(); defer c.mu.Unlock(); return c.dropped }
func (c *Coordinator) Retries() int  { c.mu.Lock(); defer c.mu.Unlock(); return c.retries }

func (c *Coordinator) event(format string, args ...interface{}) {
	c.Note(fmt.Sprintf(format, args...))
}

// noteFail counts one failover and remembers the most recent
// routing-failure cause per replica, so Status can answer "why did r1 lose
// its turn" long after the retry line scrolled off the timeline. Sticky: a
// later success does not erase it.
func (c *Coordinator) noteFail(name, label string) {
	c.mu.Lock()
	c.retries++
	c.lastFail[name] = label
	c.mu.Unlock()
}

// snapshot copies the replica slice so routing and promotion iterate a
// stable view while Rebind may swap entries.
func (c *Coordinator) snapshot() []*Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Replica(nil), c.replicas...)
}

// score is the rendezvous (highest-random-weight) hash of one (key,
// replica) pair under the coordinator seed.
func (c *Coordinator) score(key, name string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(c.seed))
	h.Write(seed[:])
	h.Write([]byte(key))
	h.Write([]byte{0}) // key/name separator: ("ab","c") must not hash like ("a","bc")
	h.Write([]byte(name))
	return h.Sum64()
}

// rank orders the replicas by descending rendezvous score for key, names
// breaking ties, so every coordinator with the same seed and replica set
// agrees on the full preference order — not just the winner — and failover
// stays deterministic too.
func (c *Coordinator) rank(key string) []*Replica {
	ranked := c.snapshot()
	scores := make(map[string]uint64, len(ranked))
	for _, r := range ranked {
		scores[r.name] = c.score(key, r.name)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i].name], scores[ranked[j].name]
		if si != sj {
			return si > sj
		}
		return ranked[i].name < ranked[j].name
	})
	return ranked
}

// cause maps a replica failure to a short deterministic label for the
// timeline (error strings carry ports and hosts; these never do).
func cause(err error) string {
	switch {
	case errors.Is(err, serve.ErrShuttingDown):
		return "draining"
	case errors.Is(err, serve.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, serve.ErrBadInput):
		return "bad-input"
	case errors.Is(err, serve.ErrTooLarge):
		return "too-large"
	case errors.Is(err, serve.ErrNoForecaster):
		return "no-forecaster"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	var ae *serve.APIError
	if errors.As(err, &ae) {
		return fmt.Sprintf("http-%d", ae.Status)
	}
	return "unreachable"
}

// Predict routes one window matrix by key: the rendezvous-ranked replicas
// are tried in order until one answers. Every attempt lands on the timeline
// ("route key replica", with "retry key replica cause" lines for the
// replicas that lost their turn), except one the caller's ctx cut short.
func (c *Coordinator) Predict(ctx context.Context, key string, mat window.Matrix) (*serve.PredictResponse, error) {
	return route(ctx, c, key, func(cl *serve.Client) (*serve.PredictResponse, error) { return cl.Predict(ctx, mat) })
}

// Forecast routes a window history the same way Predict routes a matrix.
func (c *Coordinator) Forecast(ctx context.Context, key string, history []window.Matrix) (*serve.ForecastResponse, error) {
	return route(ctx, c, key, func(cl *serve.Client) (*serve.ForecastResponse, error) { return cl.Forecast(ctx, history) })
}

// route walks key's rendezvous ranking, calling each replica until one
// answers. A bad-input, too-large or no-forecaster rejection is the caller's
// mistake and is not failed over. Nor is a call that fails once the caller's
// ctx is done: the caller gave up, so route returns ctx's error without
// blaming the replica or counting a drop. Every other failure hands the key
// to the next replica, and a key no replica answers is dropped.
func route[T any](ctx context.Context, c *Coordinator, key string, call func(*serve.Client) (*T, error)) (*T, error) {
	var errs []error
	for _, r := range c.rank(key) {
		resp, err := call(r.client)
		if err == nil {
			c.event("route %s %s", key, r.name)
			c.mu.Lock()
			c.accepted++
			c.mu.Unlock()
			return resp, nil
		}
		if errors.Is(err, serve.ErrBadInput) || errors.Is(err, serve.ErrTooLarge) || errors.Is(err, serve.ErrNoForecaster) {
			c.event("reject %s %s", key, cause(err))
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("fleet: key %q: %w", key, ctx.Err())
		}
		c.event("retry %s %s %s", key, r.name, cause(err))
		c.noteFail(r.name, cause(err))
		errs = append(errs, fmt.Errorf("%s: %w", r.name, err))
	}
	c.event("drop %s", key)
	c.mu.Lock()
	c.dropped++
	c.mu.Unlock()
	return nil, fmt.Errorf("%w for key %q: %w", ErrAllReplicasFailed, key, errors.Join(errs...))
}

// ReplicaStatus is one replica's health as the coordinator sees it.
type ReplicaStatus struct {
	Name    string
	Healthy bool
	// Cause is the failure label when unhealthy ("unreachable", "draining",
	// "http-500", ...), empty when healthy.
	Cause string
	// LastFailure is the most recent routing-failure cause this coordinator
	// recorded for the replica (the label from its last "retry" timeline
	// event). Sticky across later successes — a healthy replica with a
	// LastFailure was degraded at some point this run — and empty when the
	// replica never lost a turn.
	LastFailure string
	// Health is the replica's /v1/healthz advertisement, nil when unhealthy.
	Health *serve.Health
}

// Status is the aggregated fleet view.
type Status struct {
	// Replicas reports per-replica health in registration order.
	Replicas []ReplicaStatus
	// Healthy counts replicas that answered /v1/healthz ok.
	Healthy int
	// Consistent reports whether every healthy replica advertises the same
	// API version, model digest, forecaster digest, and input shape. A
	// fleet with zero healthy replicas is not consistent.
	Consistent bool
	// APIVersion, ModelDigest, ForecasterDigest, Targets, and Features are
	// the fleet-wide values when Consistent.
	APIVersion       string
	ModelDigest      string
	ForecasterDigest string
	Targets          int
	Features         int
}

// Status probes every replica's /v1/healthz and aggregates readiness: the
// fleet is consistent only when all healthy replicas agree on version,
// digests, and shape — the check that lets the coordinator refuse
// mixed-version fleets.
func (c *Coordinator) Status(ctx context.Context) Status {
	var st Status
	for _, r := range c.snapshot() {
		c.mu.Lock()
		lastFail := c.lastFail[r.name]
		c.mu.Unlock()
		h, err := r.client.Health(ctx)
		if err != nil {
			st.Replicas = append(st.Replicas, ReplicaStatus{Name: r.name, Cause: cause(err), LastFailure: lastFail})
			continue
		}
		if h.Status != "ok" {
			st.Replicas = append(st.Replicas, ReplicaStatus{Name: r.name, Cause: "status-" + h.Status, LastFailure: lastFail, Health: h})
			continue
		}
		st.Replicas = append(st.Replicas, ReplicaStatus{Name: r.name, Healthy: true, LastFailure: lastFail, Health: h})
		if st.Healthy == 0 {
			st.Consistent = true
			st.APIVersion = h.APIVersion
			st.ModelDigest = h.ModelDigest
			st.ForecasterDigest = h.ForecasterDigest
			st.Targets, st.Features = h.Targets, h.Features
		} else if h.APIVersion != st.APIVersion || h.ModelDigest != st.ModelDigest ||
			h.ForecasterDigest != st.ForecasterDigest ||
			h.Targets != st.Targets || h.Features != st.Features {
			st.Consistent = false
		}
		st.Healthy++
	}
	if st.Healthy == 0 {
		st.Consistent = false
	}
	if !st.Consistent {
		st.APIVersion, st.ModelDigest, st.ForecasterDigest = "", "", ""
		st.Targets, st.Features = 0, 0
	}
	return st
}

// preflight gates one promotion step: the replica must be reachable, ok,
// speaking this coordinator's API version, and its HTTP-advertised digest
// must match its admin plane's — a wrongly-wired replica (data and control
// planes pointing at different processes) fails here, before any reload.
func (c *Coordinator) preflight(ctx context.Context, r *Replica) error {
	if r.admin == nil {
		return ErrNoAdmin
	}
	h, err := r.client.Health(ctx)
	if err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("fleet: %s reports status %q", r.name, h.Status)
	}
	if h.APIVersion != serve.APIVersion {
		return fmt.Errorf("fleet: %s speaks API %q, coordinator requires %q", r.name, h.APIVersion, serve.APIVersion)
	}
	if h.ModelDigest != r.admin.ModelDigest() {
		return fmt.Errorf("fleet: %s data plane serves digest %s but admin plane holds %s",
			r.name, h.ModelDigest, r.admin.ModelDigest())
	}
	return nil
}

// promoted records one completed rollout step for rollback.
type promoted struct {
	r   *Replica
	inc *core.Framework // incumbent clone captured before the step
}

// Promote rolls a candidate framework across the fleet replica by replica,
// in registration order. Each replica gets its own clone of the candidate
// (ownership transfers on reload; frameworks carry per-instance scratch)
// after a preflight health/version check. The first failure rolls every
// already-promoted replica back to the incumbent clone captured before its
// step — in reverse order — so the fleet never stays torn between versions.
// The candidate itself is never handed over; the caller keeps it.
func (c *Coordinator) Promote(ctx context.Context, cand *core.Framework) error {
	if cand == nil {
		return errors.New("fleet: nil candidate framework")
	}
	c.promoteMu.Lock()
	defer c.promoteMu.Unlock()

	digest := ml.WeightsDigest(cand.ExportWeights())
	var done []promoted
	for _, r := range c.snapshot() {
		if err := c.stepFramework(ctx, r, cand, digest, &done); err != nil {
			c.rollback(done)
			return fmt.Errorf("%w: halted at %s: %v (rolled back %d replica(s))",
				ErrPromotionFailed, r.name, err, len(done))
		}
	}
	return nil
}

func (c *Coordinator) stepFramework(ctx context.Context, r *Replica, cand *core.Framework, digest string, done *[]promoted) error {
	if err := c.preflight(ctx, r); err != nil {
		c.event("promote-failed %s %s", r.name, cause(err))
		return err
	}
	inc, err := r.admin.Framework().Clone()
	if err != nil {
		c.event("promote-failed %s clone", r.name)
		return err
	}
	clone, err := cand.Clone()
	if err != nil {
		c.event("promote-failed %s clone", r.name)
		return err
	}
	if err := r.admin.ReloadFramework(clone); err != nil {
		c.event("promote-failed %s reload", r.name)
		return err
	}
	c.event("promote %s %s", r.name, digest)
	*done = append(*done, promoted{r: r, inc: inc})
	return nil
}

// rollback restores already-promoted replicas to their incumbents, newest
// first. Best-effort: a replica that refuses its own incumbent back is
// recorded and skipped (Status will flag the fleet inconsistent).
func (c *Coordinator) rollback(done []promoted) {
	for i := len(done) - 1; i >= 0; i-- {
		d := done[i]
		if err := d.r.admin.ReloadFramework(d.inc); err != nil {
			c.event("rollback-failed %s", d.r.name)
			continue
		}
		c.event("rollback %s %s", d.r.name, ml.WeightsDigest(d.inc.ExportWeights()))
	}
}

// PromoteShadowed turns a shadow-gate verdict (shadow.Gate, typically via a
// shadow.Evaluator's Verdict) into a fleet action: when the gate promoted a
// winner, the matching candidate framework rolls out through Promote — same
// preflight, rolling order, and reverse rollback — and when the gate kept
// the champion, nothing is touched and ErrShadowRejected is returned so
// callers can tell "gate said no" from "rollout broke". The decision lands
// on the timeline either way ("shadow-promote <winner>" / "shadow-keep
// incumbent"), keeping same-seed episodes byte-comparable.
// candidates maps challenger names (as registered with the evaluator) to the
// frameworks that would roll out; a winning name missing from the map is a
// wiring error, reported before any replica is touched.
func (c *Coordinator) PromoteShadowed(ctx context.Context, verdict shadow.GateResult, candidates map[string]*core.Framework) error {
	if !verdict.Promote || verdict.Winner == "" {
		c.event("shadow-keep incumbent")
		return fmt.Errorf("%w (margin %.4g, best challenger %.4f vs champion %.4f on %d sample(s))",
			ErrShadowRejected, verdict.Margin, verdict.CandidateAccuracy, verdict.IncumbentAccuracy, verdict.Samples)
	}
	cand, ok := candidates[verdict.Winner]
	if !ok || cand == nil {
		c.event("shadow-promote-failed %s unknown-candidate", verdict.Winner)
		return fmt.Errorf("fleet: shadow winner %q has no candidate framework", verdict.Winner)
	}
	c.event("shadow-promote %s", verdict.Winner)
	return c.Promote(ctx, cand)
}

// MergedDataset exports every replica's labeled reservoir under its own
// name and folds them through dataset.MergeAll: the fleet's combined
// retraining history, digesting identically regardless of replica order.
// Replicas without a loop are skipped; at least one must have one.
func (c *Coordinator) MergedDataset() (*dataset.Dataset, error) {
	var sets []*dataset.Dataset
	for _, r := range c.snapshot() {
		if r.loop != nil {
			sets = append(sets, r.loop.ExportBuffer(r.name))
		}
	}
	if len(sets) == 0 {
		return nil, errors.New("fleet: no replica has a labeled reservoir")
	}
	return dataset.MergeAll(sets...)
}

// SaveBuffers persists each loop-bearing replica's reservoir export to
// dir/<name>.json, so a restarted replica can replay its labeled history.
func (c *Coordinator) SaveBuffers(dir string) error {
	for _, r := range c.snapshot() {
		if r.loop == nil {
			continue
		}
		if err := r.loop.ExportBuffer(r.name).Save(filepath.Join(dir, r.name+".json")); err != nil {
			return fmt.Errorf("fleet: saving %s buffer: %w", r.name, err)
		}
	}
	return nil
}

// LoadBuffers replays each dir/<name>.json export back into the matching
// replica's reservoir. Missing files are skipped (a replica that never
// saved has nothing to restore); schema mismatches are errors. Re-importing
// a replica's own live export only duplicates samples the canonical merge
// deduplicates again, so restore is idempotent at the fleet level.
func (c *Coordinator) LoadBuffers(dir string) error {
	for _, r := range c.snapshot() {
		if r.loop == nil {
			continue
		}
		path := filepath.Join(dir, r.name+".json")
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			continue
		}
		ds, err := dataset.Load(path)
		if err != nil {
			return fmt.Errorf("fleet: loading %s buffer: %w", r.name, err)
		}
		if err := r.loop.ImportBuffer(ds); err != nil {
			return fmt.Errorf("fleet: importing %s buffer: %w", r.name, err)
		}
	}
	return nil
}
