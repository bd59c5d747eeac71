// Command quantfleet exercises the fleet coordinator (internal/fleet): N
// serve replicas behind seeded rendezvous routing with failover, federated
// reservoir merge, and rolling promotion with rollback.
//
// Usage:
//
//	quantfleet -smoke                      # deterministic 3-replica episode
//	quantfleet -shadow                     # shadow-gated promotion episode
//	quantfleet -status name=url [name=url ...]  # aggregate fleet /v1/healthz
//
// -smoke prints fleet.SmokeEpisode's report and -shadow prints
// fleet.ShadowEpisode's: in-process episodes whose output holds replica
// names, digests and scores only, so two runs with the same seed are
// byte-identical. `make fleet-smoke` and `make shadow-smoke` compare two
// runs with each other and with the goldens in internal/fleet/testdata.
//
// -status treats each argument as name=url (bare URLs get r0, r1, ...
// names), probes every replica's /v1/healthz, and prints the aggregated
// fleet view, including each replica's last routing-failure cause when the
// coordinator has seen one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"quanterference/internal/fleet"
	"quanterference/internal/serve"
)

var (
	smoke    = flag.Bool("smoke", false, "run the deterministic in-process 3-replica episode")
	shadow   = flag.Bool("shadow", false, "run the deterministic shadow-gated promotion episode")
	status   = flag.Bool("status", false, "aggregate /v1/healthz across the given name=url replicas")
	seed     = flag.Int64("seed", 1, "seed for training, routing, and the episode's request stream")
	requests = flag.Int("requests", 24, "requests to route during the smoke episode")
)

func main() {
	flag.Parse()
	var err error
	switch {
	case *smoke:
		err = fleet.SmokeEpisode(context.Background(), os.Stdout, *seed, *requests)
	case *shadow:
		err = fleet.ShadowEpisode(context.Background(), os.Stdout, *seed)
	case *status:
		err = runStatus(flag.Args())
	default:
		fmt.Fprintln(os.Stderr, "quantfleet: pass -smoke, -shadow, or -status (see -help)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "quantfleet:", err)
		os.Exit(1)
	}
}

// runStatus probes each name=url replica and prints the aggregate view. Its
// errors carry no command prefix: main adds it.
func runStatus(args []string) error {
	if len(args) == 0 {
		return errors.New("-status needs at least one name=url or url argument")
	}
	replicas := make([]*fleet.Replica, len(args))
	for i, arg := range args {
		name, url := fmt.Sprintf("r%d", i), arg
		if eq := strings.IndexByte(arg, '='); eq > 0 && !strings.HasPrefix(arg, "http") {
			name, url = arg[:eq], arg[eq+1:]
		}
		replicas[i] = fleet.NewReplica(name, nil, serve.NewClient(url, serve.WithTimeout(5*time.Second)), nil)
	}
	c, err := fleet.New(fleet.Config{}, replicas...)
	if err != nil {
		return err
	}
	st := c.Status(context.Background())
	for _, r := range st.Replicas {
		// A one-shot probe has no routing history; LastFailure fills in when
		// a long-lived coordinator (tests, embedded use) calls Status.
		suffix := ""
		if r.LastFailure != "" {
			suffix = " last-failure " + r.LastFailure
		}
		if !r.Healthy {
			fmt.Printf("%-12s DOWN (%s)%s\n", r.Name, r.Cause, suffix)
			continue
		}
		fmt.Printf("%-12s ok %s model %s %dx%d/%d classes%s\n", r.Name,
			r.Health.APIVersion, r.Health.ModelDigest, r.Health.Targets, r.Health.Features, r.Health.Classes, suffix)
	}
	fmt.Printf("healthy %d/%d consistent %v\n", st.Healthy, len(st.Replicas), st.Consistent)
	if !st.Consistent {
		return errors.New("fleet is not consistent")
	}
	return nil
}
