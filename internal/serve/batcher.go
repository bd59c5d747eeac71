package serve

import "time"

// cut is how gather ended a batch, which decides where the next window
// starts.
type cut uint8

const (
	cutIdle  cut = iota // at once, a whole window or more past the due time
	cutLate             // at once, less than a window past the due time
	cutTimer            // the window timer fired
	cutFull             // MaxBatch requests gathered before the due time
	cutStop             // flushed by shutdown
)

// gather collects the batch that first opens. Every cut starts the next
// batch window (windowStart), which is due one window later; the window
// is not anchored at first's arrival, so batches come about one window apart
// without holding a request that nothing else joins. When first arrives
// after the due time, the batcher was idle and first is cut at once, with
// whatever is already queued. Otherwise gather collects until the due time,
// a full MaxBatch, or shutdown (which flushes immediately — queued
// stragglers are answered by drain), whichever comes first.
//
// A batch the timer cuts, or one cut at once less than a window after its
// due time, starts the next window at that due time, not at the moment of
// the cut: under steady load due times stay exactly one window apart, and
// no window inherits the lateness of the cut before it, whether the timer
// fired late (the runtime sleeps an idle process in whole milliseconds) or
// the batcher or a caller stalled. A cut after a whole window of idleness,
// a full batch and a shutdown flush start the next window at the cut's wall
// time.
func (s *Server) gather(first *request) []*request {
	batch := append(make([]*request, 0, s.cfg.MaxBatch), first)
	due := s.windowStart.Add(s.window)
	now := time.Now()
	if late := now.Sub(due); late >= 0 {
		if late < s.window {
			s.startWindow(cutLate, due)
		} else {
			s.startWindow(cutIdle, now)
		}
		return s.takeQueued(batch)
	}
	timer := time.NewTimer(due.Sub(now))
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req := <-s.queue:
			batch = append(batch, req)
		case <-timer.C:
			s.startWindow(cutTimer, due)
			return batch
		case <-s.stop:
			s.startWindow(cutStop, time.Now())
			return batch
		}
	}
	s.startWindow(cutFull, time.Now())
	return batch
}

// startWindow starts the next batch window at start after a cut of the
// given kind, and reports the cut to onCut when a test set it.
func (s *Server) startWindow(kind cut, start time.Time) {
	s.windowStart = start
	if s.onCut != nil {
		s.onCut(kind, start)
	}
}

// takeQueued adds what is already queued to batch, without waiting, until
// the queue is empty or the batch holds MaxBatch requests.
func (s *Server) takeQueued(batch []*request) []*request {
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req := <-s.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// drain answers everything still queued at shutdown, in full batches.
// Requests whose callers already gave up (context canceled between enqueue
// and gather) are still answered into their buffered channels, so no sender
// ever blocks and no request is dropped.
func (s *Server) drain() {
	for {
		batch := s.takeQueued(make([]*request, 0, s.cfg.MaxBatch))
		if len(batch) == 0 {
			s.gQueueDepth.Set(0)
			return
		}
		s.runBatch(batch)
	}
}

// batcher is the single goroutine with the right to touch a Framework's
// prediction scratch. It blocks for the first request, gathers more as
// gather decides, and answers the whole batch from one PredictBatch call.
// It alone reads and writes windowStart (through gather), and it sets the
// queue-depth gauge after every cut. On shutdown it drains whatever
// is still queued before exiting, so every admitted request is answered.
func (s *Server) batcher() {
	defer close(s.done)
	for {
		select {
		case first := <-s.queue:
			batch := s.gather(first)
			s.gQueueDepth.Set(float64(len(s.queue)))
			s.runBatch(batch)
		case <-s.stop:
			s.drain()
			return
		}
	}
}

// runBatch classifies one gathered batch. The framework pointer is loaded
// once per batch: a concurrent Reload affects only later batches, and each
// Framework owns its own scratch, so the swap is race-free.
func (s *Server) runBatch(batch []*request) {
	fw := s.fw.Load()
	mats := s.batchMats[:0]
	for _, req := range batch {
		mats = append(mats, req.mat)
		s.hQueueNS.Observe(float64(time.Since(req.enq)))
	}
	s.batchMats = mats[:0]

	start := time.Now()
	cls, probs := fw.PredictBatch(mats)
	s.hModelNS.Observe(float64(time.Since(start)))
	s.mBatches.Inc()
	s.hBatch.Observe(float64(len(batch)))

	for i, req := range batch {
		// Mirror before answering: one non-blocking channel send (or a
		// counted drop), so a received reply guarantees the shadow evaluator
		// can already see the event — the happens-before edge the shadow
		// determinism suite leans on — while the champion path never waits.
		// A non-finite reply (Predict answers it with errNonFinite) is not
		// mirrored: a NaN would poison every candidate's mean CE.
		if s.cfg.Shadow != nil && finite(probs[i]) {
			s.cfg.Shadow.Mirror(req.mat, cls[i])
		}
		// Copy out: the framework reuses its probability rows on the next
		// batch, but the caller's slice must stay valid indefinitely.
		req.resp <- response{class: cls[i], probs: append([]float64(nil), probs[i]...)}
	}
}
