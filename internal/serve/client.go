package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"quanterference/internal/monitor/window"
	"quanterference/internal/shadow"
)

// Client is a typed HTTP client for a quantserve instance, so tools
// (cmd/quantpredict -server, the fleet coordinator) can target a running
// service instead of loading a framework file themselves. It speaks the
// versioned /v1/ surface only.
type Client struct {
	base string
	hc   *http.Client
}

// userAgent names this client on every request.
const userAgent = "quanterference-client/" + APIVersion

// ClientOption configures a Client at construction (NewClient).
type ClientOption func(*Client)

// WithTimeout bounds every HTTP round trip (default 30s). Zero or negative
// means no timeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.hc.Timeout = d }
}

// NewClient targets base (e.g. "http://localhost:8080"). A trailing slash
// is tolerated.
func NewClient(base string, opts ...ClientOption) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	c := &Client{base: base, hc: &http.Client{Timeout: 30 * time.Second}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is the client-side form of every non-200 the server returns: the
// HTTP status, the server's error code (the code* constants behind
// errorResponse.Code, empty for untyped failures), and the retry-after hint
// on shed (503) responses. It unwraps to the matching server sentinel, so
// errors.Is(err, ErrOverloaded / ErrShuttingDown / ErrBadInput /
// ErrTooLarge / ErrNoForecaster) works across the HTTP boundary.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code names the server-side sentinel ("overloaded", "shutting_down",
	// "bad_input", "too_large", "no_forecaster"); empty for untyped errors.
	Code string
	// RetryAfter is the server's suggested backoff before retrying; zero
	// when the response carried no hint.
	RetryAfter time.Duration
	msg        string
}

func (e *APIError) Error() string { return e.msg }

// Unwrap maps the error code back to the server sentinel, so errors.Is
// matches the same sentinels server-side callers use.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case codeOverloaded:
		return ErrOverloaded
	case codeShuttingDown:
		return ErrShuttingDown
	case codeBadInput:
		return ErrBadInput
	case codeTooLarge:
		return ErrTooLarge
	case codeNoForecaster:
		return ErrNoForecaster
	case codeNoShadow:
		return ErrNoShadow
	}
	return nil
}

// v1 prefixes a route with the versioned mount point.
func v1(path string) string { return "/" + APIVersion + path }

func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, payload, out)
}

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

func (c *Client) do(ctx context.Context, method, path string, payload []byte, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", userAgent)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode}
		var e errorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			apiErr.Code = e.Code
			apiErr.RetryAfter = time.Duration(e.RetryAfterSeconds * float64(time.Second))
			if apiErr.RetryAfter <= 0 && resp.StatusCode == http.StatusServiceUnavailable {
				apiErr.RetryAfter = retryAfterSeconds * time.Second
			}
			apiErr.msg = fmt.Sprintf("serve: %s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
			return apiErr
		}
		apiErr.msg = fmt.Sprintf("serve: %s %s: HTTP %d", method, path, resp.StatusCode)
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Predict classifies one raw window matrix on the server.
func (c *Client) Predict(ctx context.Context, mat window.Matrix) (*PredictResponse, error) {
	var out PredictResponse
	if err := c.post(ctx, v1("/predict"), PredictRequest{Matrix: mat}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Forecast predicts slowdown ahead of time from the last History raw window
// matrices (oldest first). Servers without a forecaster return an error
// matching ErrNoForecaster.
func (c *Client) Forecast(ctx context.Context, history []window.Matrix) (*ForecastResponse, error) {
	hist := make([][][]float64, len(history))
	for i, mat := range history {
		hist[i] = mat
	}
	var out ForecastResponse
	if err := c.post(ctx, v1("/forecast"), ForecastRequest{History: hist}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShadowStatus fetches the server's shadow-evaluation scoreboard: the
// champion's and every challenger's live accuracy/CE plus the mirror
// plumbing counters. Servers without a shadow evaluator return an error
// matching ErrNoShadow.
func (c *Client) ShadowStatus(ctx context.Context) (*shadow.Status, error) {
	var out shadow.Status
	if err := c.get(ctx, v1("/shadow"), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches liveness, the API version, the served weight digests, and
// the loaded model's shape.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.get(ctx, v1("/healthz"), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reload asks the server to hot-swap its framework; an empty path reloads
// the server's configured model file.
func (c *Client) Reload(ctx context.Context, path string) error {
	return c.post(ctx, v1("/admin/reload"), reloadRequest{Path: path}, nil)
}
