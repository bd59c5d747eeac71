package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult holds one load phase's per-request outcome, indexed by request.
// Each slot is written by the one sender that owned the request and read
// only after every sender has returned.
type loadResult struct {
	lat     []float64 // ms from due (open loop) or send (closed loop) to reply
	late    []float64 // ms from due to send; open loop only (nil otherwise)
	errs    []error
	sent    []bool
	elapsed time.Duration
}

func (r *loadResult) count() (sent, failed int) {
	for i, ok := range r.sent {
		if !ok || r.errs[i] != nil {
			failed++
		}
		if ok {
			sent++
		}
	}
	return sent, failed
}

func newLoadResult(n int) *loadResult {
	return &loadResult{
		lat:  make([]float64, n),
		late: make([]float64, n),
		errs: make([]error, n),
		sent: make([]bool, n),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs clients goroutines, each sending its next request only
// after the previous reply, until d has elapsed. do(client, seq) performs one
// request and reports a failed or wrong reply as an error. Results are in
// completion order per client, clients concatenated.
func closedLoop(clients int, d time.Duration, do func(client, seq int) error) *loadResult {
	per := make([]*loadResult, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		per[c] = newLoadResult(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := per[c]
			for seq := 0; time.Now().Before(deadline); seq++ {
				t := time.Now()
				err := do(c, seq)
				r.lat = append(r.lat, ms(time.Since(t)))
				r.errs = append(r.errs, err)
				r.sent = append(r.sent, true)
			}
		}()
	}
	wg.Wait()
	out := newLoadResult(0)
	out.elapsed = time.Since(start)
	for _, r := range per {
		out.lat = append(out.lat, r.lat...)
		out.errs = append(out.errs, r.errs...)
		out.sent = append(out.sent, r.sent...)
	}
	return out
}

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate per second over d, drawn from next (a uniform [0, 1) source).
func poissonSchedule(rate float64, d time.Duration, next func() float64) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-next()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// openLoop sends request i at start+due[i] from senders goroutines, each with
// one request in flight. A request's latency runs from its due time, so a
// stall is charged to every request that queued behind it; late records how
// far behind schedule the generator sent it. A request not yet sent when
// cutoff has passed since start is left unsent and counts as failed: the
// backlog grew beyond what the phase allows.
func openLoop(senders int, due []time.Duration, cutoff time.Duration, do func(i int) error) *loadResult {
	res := newLoadResult(len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if w := time.Until(at); w > 0 {
					time.Sleep(w)
				}
				sent := time.Now()
				if sent.Sub(start) > cutoff {
					continue
				}
				err := do(i)
				res.lat[i] = ms(time.Since(at))
				res.late[i] = ms(sent.Sub(at))
				res.errs[i] = err
				res.sent[i] = true
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}
