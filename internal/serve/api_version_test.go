package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quanterference/internal/ml"
)

// TestVersionedSurface pins the v1 API: every route answers under /v1/, an
// unversioned path answers 404, and /v1/healthz carries the API version plus
// the served weight digests.
func TestVersionedSurface(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	wantDigest := ml.WeightsDigest(fw.ExportWeights())
	s := New(fw, Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL)

	if got := s.ModelDigest(); got != wantDigest {
		t.Fatalf("ModelDigest = %s, want %s", got, wantDigest)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.APIVersion != APIVersion {
		t.Fatalf("health api_version = %q, want %q", h.APIVersion, APIVersion)
	}
	if h.ModelDigest != wantDigest {
		t.Fatalf("health model_digest = %q, want %q", h.ModelDigest, wantDigest)
	}
	if h.ForecasterDigest != "" {
		t.Fatalf("health forecaster_digest = %q on a forecast-less server", h.ForecasterDigest)
	}

	// Replies are stamped with the digest of the weights that answered.
	resp, err := c.Predict(ctx, mats[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelDigest != wantDigest {
		t.Fatalf("predict model_digest = %q, want %q", resp.ModelDigest, wantDigest)
	}

	// A promotion changes the digest the moment the new weights serve.
	cand, err := fw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cand.Model.Params()[0].W[0] += 1 // genuinely different weights
	candDigest := ml.WeightsDigest(cand.ExportWeights())
	if candDigest == wantDigest {
		t.Fatal("perturbed candidate digests like the incumbent")
	}
	if err := s.ReloadFramework(cand); err != nil {
		t.Fatal(err)
	}
	if got := s.ModelDigest(); got != candDigest {
		t.Fatalf("post-promotion ModelDigest = %s, want %s", got, candDigest)
	}
	if resp, err = c.Predict(ctx, mats[0]); err != nil || resp.ModelDigest != candDigest {
		t.Fatalf("post-promotion predict stamp = %q (%v), want %q", resp.ModelDigest, err, candDigest)
	}

	// Only /v1/ routes are mounted: every unversioned path is a 404.
	for _, path := range []string{"/predict", "/forecast", "/healthz", "/stats", "/shadow", "/admin/reload"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d %s, want 404", path, rec.Code, rec.Body.String())
		}
	}

	// /v1/stats serves the obs snapshot.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/"+APIVersion+"/stats", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "serve/requests") {
		t.Fatalf("/v1/stats = %d %s", rec.Code, rec.Body.String())
	}
}
