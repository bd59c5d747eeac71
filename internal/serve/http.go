package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"quanterference/internal/monitor/window"
)

// APIVersion names the HTTP surface mounted under /v1/. Replicas advertise
// it on /v1/healthz; the fleet coordinator refuses to route to replicas
// whose version differs from the fleet's.
const APIVersion = "v1"

// PredictRequest is the /v1/predict request body: one raw (unscaled) window
// matrix, [targets][features], exactly what core.Framework.Predict takes.
// The client encodes it with encoding/json; the server parses it with its
// own codec (codec.go), which accepts only this one member.
type PredictRequest struct {
	Matrix [][]float64 `json:"matrix"`
}

// PredictResponse is the /v1/predict response body.
type PredictResponse struct {
	// Class is the predicted degradation class.
	Class int `json:"class"`
	// Label is the class's human-readable bin name (e.g. ">=2x").
	Label string `json:"label"`
	// Probs is the class probability distribution.
	Probs []float64 `json:"probs"`
	// ModelDigest identifies the framework weights that answered
	// (ml.WeightsDigest) — the consistency stamp the fleet layer checks.
	ModelDigest string `json:"model_digest"`
}

// ForecastRequest is the /v1/forecast request body: the last History raw
// window matrices, oldest first — [windows][targets][features]. Encoded and
// parsed like PredictRequest.
type ForecastRequest struct {
	History [][][]float64 `json:"history"`
}

// ForecastResponse is the /v1/forecast response body: one predicted class
// and distribution per horizon, plus the derived time-to-degradation.
type ForecastResponse struct {
	// Horizons, Classes, Labels, and Probs are parallel: Classes[i] is the
	// predicted slowdown class Horizons[i] windows ahead.
	Horizons []int       `json:"horizons"`
	Classes  []int       `json:"classes"`
	Labels   []string    `json:"labels"`
	Probs    [][]float64 `json:"probs"`
	// LeadWindows is the smallest horizon predicting degradation (0 = none).
	LeadWindows int  `json:"lead_windows"`
	Degrading   bool `json:"degrading"`
	// ModelDigest identifies the forecaster weights that answered.
	ModelDigest string `json:"model_digest"`
}

// Health is the /v1/healthz response body: liveness, the API version, the
// served weight digests, and the loaded model's shape — enough for a client
// to validate inputs, reconstruct label.Bins, and for a fleet coordinator to
// refuse mixed-version replicas.
type Health struct {
	Status string `json:"status"`
	// APIVersion is the route version this replica speaks (serve.APIVersion).
	APIVersion string `json:"api_version"`
	// ModelDigest / ForecasterDigest identify the served weights
	// (ml.WeightsDigest); ForecasterDigest is absent when forecasting is
	// disabled.
	ModelDigest      string `json:"model_digest"`
	ForecasterDigest string `json:"forecaster_digest,omitempty"`
	// Targets and Features describe the expected matrix shape (Targets 0
	// means any row count).
	Targets  int `json:"targets"`
	Features int `json:"features"`
	Classes  int `json:"classes"`
	// Thresholds are the degradation bin edges (label.Bins.Thresholds).
	Thresholds []float64 `json:"thresholds"`
	// ForecastHistory and ForecastHorizons describe the loaded forecaster
	// (/v1/forecast input shape); both absent when forecasting is disabled.
	ForecastHistory  int   `json:"forecast_history,omitempty"`
	ForecastHorizons []int `json:"forecast_horizons,omitempty"`
}

// retryAfterSeconds is the backoff hint attached to 503 responses (body and
// Retry-After header): the queue drains within one batch window at healthy
// load, so one second is a conservative round number.
const retryAfterSeconds = 1

// maxBodyBytes caps every POST body (/v1/predict, /v1/forecast,
// /v1/admin/reload): an oversized one is refused with 413 before any parse.
const maxBodyBytes = 1 << 20

// reloadRequest optionally overrides the reload path.
type reloadRequest struct {
	Path string `json:"path"`
}

// Error codes carried in error response bodies so typed clients can map an
// HTTP failure back to the server-side sentinel without parsing prose.
const (
	codeOverloaded   = "overloaded"
	codeShuttingDown = "shutting_down"
	codeBadInput     = "bad_input"
	codeTooLarge     = "too_large"
	codeNoForecaster = "no_forecaster"
	codeNoShadow     = "no_shadow"
)

type errorResponse struct {
	Error string `json:"error"`
	// Code names the sentinel behind the failure (one of the code*
	// constants); empty for untyped errors.
	Code string `json:"code,omitempty"`
	// RetryAfterSeconds hints when a shed (503) request is worth retrying —
	// the body-level mirror of the Retry-After header, so clients that only
	// see the decoded JSON still get the hint.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// Handler returns the server's versioned HTTP API:
//
//	POST /v1/predict       {"matrix": [[...], ...]} -> PredictResponse
//	POST /v1/forecast      {"history": [[[...], ...], ...]} -> ForecastResponse
//	GET  /v1/healthz       -> Health
//	GET  /v1/stats         -> obs snapshot JSON (counters, batch histogram, latencies)
//	GET  /v1/shadow        -> shadow.Status (champion/challenger scoreboard; 404 without a shadow evaluator)
//	POST /v1/admin/reload  {"path": "..."} (optional body) -> {"reloaded": true}
//
// Unversioned paths are not mounted and answer 404. A POST body is read
// whole, at most 1 MiB, before any parse: a larger one is a 413 too_large
// whatever its content. A predict or forecast body is exactly the object
// shown, with JSON whitespace between tokens and after it, and JSON
// numbers; another member, another spelling of the key ("Matrix", escaped
// characters), a duplicate key, null, or anything but whitespace after the
// object is a 400 bad_input. A reload body is one JSON value that
// json.Unmarshal decodes into the shape shown; an empty or whitespace-only
// one reloads Config.ModelPath.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := map[string]http.HandlerFunc{
		"/predict":      s.handlePredict,
		"/forecast":     s.handleForecast,
		"/healthz":      s.handleHealthz,
		"/stats":        s.handleStats,
		"/shadow":       s.handleShadow,
		"/admin/reload": s.handleReload,
	}
	for path, h := range routes {
		mux.HandleFunc("/"+APIVersion+path, h)
	}
	return mux
}

// writeServeError maps a Predict/Forecast error to its HTTP status and typed
// body (the code constants clients rely on).
func writeServeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	body := errorResponse{Error: err.Error()}
	switch {
	case errors.Is(err, ErrBadInput):
		status = http.StatusBadRequest
		body.Code = codeBadInput
	case errors.Is(err, ErrTooLarge):
		status = http.StatusRequestEntityTooLarge
		body.Code = codeTooLarge
	case errors.Is(err, ErrNoForecaster):
		status = http.StatusNotFound
		body.Code = codeNoForecaster
	case errors.Is(err, ErrNoShadow):
		status = http.StatusNotFound
		body.Code = codeNoShadow
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		body.Code = codeOverloaded
		body.RetryAfterSeconds = retryAfterSeconds
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
		body.Code = codeShuttingDown
		body.RetryAfterSeconds = retryAfterSeconds
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxPooledBody is the largest body buffer put back in bodyPool: one grown
// for a rare large body is left to the garbage collector, so the pool does
// not pin it.
const maxPooledBody = 64 << 10

// bodyPool recycles POST body buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a POST body of at most maxBodyBytes into a pooled buffer
// and hands it to decode, which must copy out what it keeps: the buffer
// goes back to the pool when decode returns. A body over the limit is a 413
// whatever its content, since it is read to the limit before any parse. On
// failure readBody writes the error response itself (405, 413, or 400
// bad_input) and returns false.
func readBody(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return false
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = decode(buf.Bytes())
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeServeError(w, fmt.Errorf("%w: over %d bytes", ErrTooLarge, maxBodyBytes))
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error(), Code: codeBadInput})
	}
	return false
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var mat window.Matrix
	if !readBody(w, r, func(b []byte) (err error) {
		mat, err = decodePredict(b)
		return err
	}) {
		return
	}
	class, probs, err := s.Predict(r.Context(), mat)
	if err != nil {
		writeServeError(w, err)
		return
	}
	fw := s.fw.Load()
	writeJSON(w, http.StatusOK, PredictResponse{
		Class: class, Label: fw.Bins.Name(class), Probs: probs,
		ModelDigest: s.ModelDigest(),
	})
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	var hist []window.Matrix
	if !readBody(w, r, func(b []byte) (err error) {
		hist, err = decodeForecast(b)
		return err
	}) {
		return
	}
	pred, err := s.Forecast(r.Context(), hist)
	if err != nil {
		writeServeError(w, err)
		return
	}
	labels := make([]string, len(pred.Classes))
	for i, c := range pred.Classes {
		labels[i] = s.fc.Bins.Name(c)
	}
	writeJSON(w, http.StatusOK, ForecastResponse{
		Horizons:    pred.Horizons,
		Classes:     pred.Classes,
		Labels:      labels,
		Probs:       pred.Probs,
		LeadWindows: pred.LeadWindows,
		Degrading:   pred.Degrading(),
		ModelDigest: s.fcDigest,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fw := s.fw.Load()
	nTargets, nFeat := fw.Dims()
	h := Health{
		Status:      "ok",
		APIVersion:  APIVersion,
		ModelDigest: s.ModelDigest(),
		Targets:     nTargets,
		Features:    nFeat,
		Classes:     fw.Classes(),
		Thresholds:  fw.Bins.Thresholds,
	}
	if s.fc != nil {
		h.ForecastHistory, _ = s.fc.Dims()
		h.ForecastHorizons = s.fc.Horizons()
		h.ForecasterDigest = s.fcDigest
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleShadow(w http.ResponseWriter, r *http.Request) {
	ev := s.cfg.Shadow
	if ev == nil {
		writeServeError(w, ErrNoShadow)
		return
	}
	// Drain the mirror queue first so the scoreboard reflects every reply
	// the caller has already seen (the batcher mirrors before answering).
	ev.Sync()
	writeJSON(w, http.StatusOK, ev.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.Stats().WriteJSON(w)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if !readBody(w, r, func(b []byte) error {
		if blank(b) { // reload the configured path
			return nil
		}
		return json.Unmarshal(b, &req)
	}) {
		return
	}
	if err := s.Reload(req.Path); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"reloaded": true})
}
