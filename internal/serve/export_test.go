package serve

import (
	"slices"
	"sync"
	"time"

	"quanterference/internal/core"
)

// newWithWindow starts a server like New, but with the given batch window in
// place of the fixed one, for tests that must hold a gather open or give a
// window room to be measured. The returned log records every cut the
// batcher makes.
func newWithWindow(fw *core.Framework, cfg Config, window time.Duration) (*Server, *cutLog) {
	s := newServer(fw, cfg)
	s.window = window
	log := &cutLog{}
	s.onCut = log.record
	go s.batcher()
	return s, log
}

func (k cut) String() string {
	return [...]string{"idle", "late", "timer", "full", "stop"}[k]
}

// windowCut is one cut as the batcher made it: how gather ended the batch,
// and where the next window starts.
type windowCut struct {
	kind  cut
	start time.Time
}

// cutLog collects the batcher's cuts for the test goroutine.
type cutLog struct {
	mu   sync.Mutex
	cuts []windowCut
}

func (l *cutLog) record(kind cut, start time.Time) {
	l.mu.Lock()
	l.cuts = append(l.cuts, windowCut{kind, start})
	l.mu.Unlock()
}

// snapshot returns the cuts recorded so far, oldest first.
func (l *cutLog) snapshot() []windowCut {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.cuts)
}
