package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"

	"quanterference/internal/core"
	"quanterference/internal/online"
	"quanterference/internal/serve"
)

// Local is an in-process fleet: replicas r0, r1, ..., each a serve.Server
// on a clone of one master framework behind an httptest listener, with an
// optional online.Loop, all wired into one Coordinator. Both episodes and
// the fleet tests boot their replicas through it. The slices are indexed by
// replica; Restart replaces entry i of each.
type Local struct {
	Coord   *Coordinator
	Servers []*serve.Server
	HTTP    []*httptest.Server
	Loops   []*online.Loop // nil entries when started without loops
	Names   []string

	seed  int64
	cfgs  []serve.Config
	loops bool
}

// StartLocal starts one replica per config: replica i serves a clone of
// master under cfgs[i] and, when loops is set, runs an online.Loop seeded
// seed+i. The coordinator routes under seed. Close stops every replica.
func StartLocal(master *core.Framework, seed int64, loops bool, cfgs ...serve.Config) (*Local, error) {
	l := &Local{seed: seed, cfgs: cfgs, loops: loops}
	replicas := make([]*Replica, len(cfgs))
	for i := range cfgs {
		name := fmt.Sprintf("r%d", i)
		s, ts, loop, err := l.boot(i, master)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("fleet: starting %s: %w", name, err)
		}
		l.Servers = append(l.Servers, s)
		l.HTTP = append(l.HTTP, ts)
		l.Loops = append(l.Loops, loop)
		l.Names = append(l.Names, name)
		replicas[i] = NewReplica(name, s, serve.NewClient(ts.URL), loop)
	}
	var err error
	if l.Coord, err = New(Config{Seed: seed}, replicas...); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// boot starts replica i's server on a clone of fw, its listener and, when
// the fleet runs loops, its online loop.
func (l *Local) boot(i int, fw *core.Framework) (*serve.Server, *httptest.Server, *online.Loop, error) {
	clone, err := fw.Clone()
	if err != nil {
		return nil, nil, nil, err
	}
	s := serve.New(clone, l.cfgs[i])
	var loop *online.Loop
	if l.loops {
		if loop, err = online.NewLoop(s, online.Config{Seed: l.seed + int64(i)}); err != nil {
			_ = s.Shutdown(context.Background())
			return nil, nil, nil, err
		}
	}
	return s, httptest.NewServer(s.Handler()), loop, nil
}

// Kill stops replica i's listener and server, as a crash would, and notes
// "kill <name>" on the timeline. Its keys fail over until Restart.
func (l *Local) Kill(i int) {
	l.stop(i)
	l.Coord.Note("kill " + l.Names[i])
}

// stop closes replica i's listener and drains its server; both are
// idempotent, so a killed replica can be stopped again.
func (l *Local) stop(i int) {
	l.HTTP[i].Close()
	_ = l.Servers[i].Shutdown(context.Background())
}

// Restart stops replica i if it still runs, boots a fresh server, listener
// and empty loop under its old name and config, and rebinds them into the
// coordinator. The new server clones the model the old one served last,
// which is the model the fleet serves: a rollout needs every replica, so
// none succeeds while replica i is down, and a failed one rolls back.
func (l *Local) Restart(i int) error {
	l.stop(i)
	s, ts, loop, err := l.boot(i, l.Servers[i].Framework())
	if err != nil {
		return fmt.Errorf("fleet: restarting %s: %w", l.Names[i], err)
	}
	l.Servers[i], l.HTTP[i], l.Loops[i] = s, ts, loop
	return l.Coord.Rebind(l.Names[i], s, serve.NewClient(ts.URL), loop)
}

// Close stops every replica's listener and server.
func (l *Local) Close() {
	for i := range l.Servers {
		l.stop(i)
	}
}
