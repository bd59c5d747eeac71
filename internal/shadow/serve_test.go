package shadow_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"quanterference/internal/serve"
	"quanterference/internal/shadow"
	"quanterference/internal/sim"
)

// These tests tap an Evaluator into a serve.Server. serve imports shadow,
// so they live in the external test package.

// TestServeMirrorTapAndEndpoint drives the full serving integration: traffic
// predicted over HTTP is mirrored and scoreable, /v1/shadow serves the
// scoreboard through the typed client, and a server without an evaluator
// answers with ErrNoShadow.
func TestServeMirrorTapAndEndpoint(t *testing.T) {
	ctx := context.Background()
	champ := shadow.TrainedFramework(t, 30, 2)
	served, err := champ.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := shadow.New(champ, shadow.Config{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("c0", shadow.TrainedFramework(t, 31, 4)); err != nil {
		t.Fatal(err)
	}

	s := serve.New(served, serve.Config{Shadow: ev})
	defer s.Shutdown(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := serve.NewClient(ts.URL)

	mats, degs := shadow.LabeledStream(sim.NewRNG(32), 16)
	for _, mat := range mats {
		if _, err := c.Predict(ctx, mat); err != nil {
			t.Fatal(err)
		}
	}
	for i, mat := range mats {
		if !ev.Label(mat, degs[i]) {
			t.Fatalf("served request %d not joinable: the batcher mirrors before answering", i)
		}
	}

	st, err := c.ShadowStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mirrored != 16 || st.Labeled != 16 || st.Champion.Samples != 16 {
		t.Fatalf("shadow status over HTTP %+v", st)
	}
	if len(st.Challengers) != 1 || st.Challengers[0].Name != "c0" || st.Challengers[0].Samples != 16 {
		t.Fatalf("challenger row %+v", st.Challengers)
	}

	// No evaluator attached: typed 404.
	bare := serve.New(served, serve.Config{})
	defer bare.Shutdown(ctx)
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()
	if _, err := serve.NewClient(bareTS.URL).ShadowStatus(ctx); !errors.Is(err, serve.ErrNoShadow) {
		t.Fatalf("shadowless server = %v, want ErrNoShadow", err)
	}
}

// TestDropsNeverPerturbChampion is the hot-path isolation suite: a server
// whose shadow queue is one slot deep (almost every mirror drops) must
// answer 16 concurrent clients bit-identically to a shadowless server with
// the same weights. Run under -race.
func TestDropsNeverPerturbChampion(t *testing.T) {
	ctx := context.Background()
	champ := shadow.TrainedFramework(t, 40, 3)
	fwA, err := champ.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fwB, err := champ.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := shadow.New(champ, shadow.Config{QueueCap: 1}) // nobody drains: mirrors drop
	if err != nil {
		t.Fatal(err)
	}

	withShadow := serve.New(fwA, serve.Config{Shadow: ev})
	defer withShadow.Shutdown(ctx)
	tsA := httptest.NewServer(withShadow.Handler())
	defer tsA.Close()
	without := serve.New(fwB, serve.Config{})
	defer without.Shutdown(ctx)
	tsB := httptest.NewServer(without.Handler())
	defer tsB.Close()
	cA, cB := serve.NewClient(tsA.URL), serve.NewClient(tsB.URL)

	mats, _ := shadow.LabeledStream(sim.NewRNG(41), 8)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				mat := mats[(g+i)%len(mats)]
				ra, err := cA.Predict(ctx, mat)
				if err != nil {
					errs <- err
					return
				}
				rb, err := cB.Predict(ctx, mat)
				if err != nil {
					errs <- err
					return
				}
				if ra.Class != rb.Class || len(ra.Probs) != len(rb.Probs) {
					errs <- fmt.Errorf("shadowed reply diverged: %+v vs %+v", ra, rb)
					return
				}
				for p := range ra.Probs {
					if math.Float64bits(ra.Probs[p]) != math.Float64bits(rb.Probs[p]) {
						errs <- fmt.Errorf("prob %d diverged: %x vs %x", p, ra.Probs[p], rb.Probs[p])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := ev.Status()
	if st.Dropped == 0 {
		t.Fatal("drop path never exercised; shrink the queue")
	}
	if st.Mirrored+st.Dropped != 16*8 {
		t.Fatalf("mirror accounting %d+%d, want %d offers", st.Mirrored, st.Dropped, 16*8)
	}
}
