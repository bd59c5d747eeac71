package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quanterference/internal/monitor/window"
)

// TestReloadFrameworkPromotion pins the in-process hot-swap path the
// continuous-learning loop uses: a shape-compatible candidate replaces the
// served framework atomically, a mismatched one is rejected without
// disturbing service, and ownership of the promoted framework transfers.
func TestReloadFrameworkPromotion(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	candidate, err := fw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	wantClass, wantProbs := fw.Predict(mats[0])

	s := New(fw, Config{})
	defer s.Shutdown(context.Background())
	ctx := context.Background()

	if err := s.ReloadFramework(candidate); err != nil {
		t.Fatalf("compatible candidate rejected: %v", err)
	}
	if s.Framework() != candidate {
		t.Fatal("served framework is not the promoted candidate")
	}
	class, probs, err := s.Predict(ctx, mats[0])
	if err != nil {
		t.Fatal(err)
	}
	if class != wantClass {
		t.Fatalf("class %d after promotion, want %d", class, wantClass)
	}
	for i := range wantProbs {
		if math.Float64bits(probs[i]) != math.Float64bits(wantProbs[i]) {
			t.Fatalf("probs %v after promotion, want %v", probs, wantProbs)
		}
	}

	// Wrong input shape: rejected, incumbent keeps serving.
	wrong, _ := trainedFramework(t, 3, 7)
	if err := s.ReloadFramework(wrong); err == nil {
		t.Fatal("mismatched candidate accepted")
	}
	if err := s.ReloadFramework(nil); err == nil {
		t.Fatal("nil candidate accepted")
	}
	if s.Framework() != candidate {
		t.Fatal("failed reload replaced the served framework")
	}
	if _, _, err := s.Predict(ctx, mats[0]); err != nil {
		t.Fatalf("service disturbed by rejected reload: %v", err)
	}
}

// TestClientTypedErrors pins the client-side mapping of error bodies back to
// the server sentinels: every non-200 becomes one *APIError carrying the
// status and server code, errors.Is-matching ErrOverloaded / ErrShuttingDown
// / ErrBadInput, with the body's retry-after hint on 503s.
func TestClientTypedErrors(t *testing.T) {
	var body errorResponse
	var status int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, status, body)
	}))
	defer stub.Close()
	c := NewClient(stub.URL)
	ctx := context.Background()
	mat := window.Matrix{{1, 2, 3}}

	status = http.StatusServiceUnavailable
	body = errorResponse{Error: "queue full (256)", Code: codeOverloaded, RetryAfterSeconds: 2.5}
	_, err := c.Predict(ctx, mat)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded 503 = %v, want errors.Is ErrOverloaded", err)
	}
	if errors.Is(err, ErrShuttingDown) {
		t.Fatal("overloaded 503 also matched ErrShuttingDown")
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("overloaded 503 = %T, want *APIError", err)
	}
	if ae.Status != http.StatusServiceUnavailable || ae.Code != codeOverloaded ||
		ae.RetryAfter != 2500*time.Millisecond {
		t.Fatalf("APIError = %+v, want 503/overloaded with RetryAfter 2.5s", ae)
	}
	if !strings.Contains(ae.Error(), "queue full") {
		t.Fatalf("error message lost the server detail: %q", ae.Error())
	}

	// No hint in the body: the client falls back to the protocol default.
	body = errorResponse{Error: "queue full", Code: codeOverloaded}
	_, err = c.Predict(ctx, mat)
	if !errors.As(err, &ae) || ae.RetryAfter != retryAfterSeconds*time.Second {
		t.Fatalf("default retry-after = %v, want %ds", err, retryAfterSeconds)
	}

	body = errorResponse{Error: "draining", Code: codeShuttingDown, RetryAfterSeconds: 1}
	_, err = c.Predict(ctx, mat)
	if !errors.Is(err, ErrShuttingDown) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("shutting-down 503 = %v, want errors.Is ErrShuttingDown only", err)
	}
	if !errors.As(err, &ae) || ae.Code != codeShuttingDown {
		t.Fatalf("shutting-down 503 = %+v, want Code shutting_down", err)
	}

	status = http.StatusBadRequest
	body = errorResponse{Error: "row 0 has 3 features", Code: codeBadInput}
	_, err = c.Predict(ctx, mat)
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad-input 400 = %v, want errors.Is ErrBadInput", err)
	}
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("bad-input 400 = %+v, want APIError with Status 400", err)
	}

	// Untyped failure bodies stay APIErrors with the status, no sentinel
	// match.
	status = http.StatusInternalServerError
	body = errorResponse{Error: "boom"}
	_, err = c.Predict(ctx, mat)
	if err == nil || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrBadInput) {
		t.Fatalf("untyped 500 = %v, want no sentinel match", err)
	}
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError || ae.Code != "" {
		t.Fatalf("untyped 500 = %+v, want bare APIError{Status: 500}", err)
	}
}

// TestClientShuttingDownEndToEnd drives the real server: once Shutdown has
// begun, an HTTP predict comes back as a typed shutting-down error.
func TestClientShuttingDownEndToEnd(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, err := NewClient(ts.URL).Predict(context.Background(), mats[0])
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("predict after shutdown = %v, want errors.Is ErrShuttingDown", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != codeShuttingDown || ae.RetryAfter <= 0 {
		t.Fatalf("predict after shutdown = %+v, want shutting_down APIError with retry hint", err)
	}
}
