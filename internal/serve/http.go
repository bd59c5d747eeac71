package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"quanterference/internal/monitor/window"
)

// APIVersion names the HTTP surface mounted under /v1/. Replicas advertise
// it on /v1/healthz; the fleet coordinator refuses to route to replicas
// whose version differs from the fleet's.
const APIVersion = "v1"

// PredictRequest is the /v1/predict request body: one raw (unscaled) window
// matrix, [targets][features], exactly what core.Framework.Predict takes.
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
// window matrices, oldest first — [windows][targets][features].
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
// /v1/admin/reload), so an oversized one is refused with 413 before it is
// fully decoded.
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
// Unversioned paths are not mounted and answer 404.
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

// decodeBody decodes a POST body of at most maxBodyBytes, holding exactly
// one JSON value, into v. An empty or whitespace-only body is malformed
// unless emptyOK, which leaves v at its zero value; anything but whitespace
// after the value is malformed. On failure it writes the error response
// itself (405, 413, or 400 bad_input) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, emptyOK bool) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		// The value must end the body: a further token, or bytes that
		// do not start one, is trailing data.
		if _, err = dec.Token(); err == nil {
			err = errors.New("trailing data after the JSON value")
		} else if err == io.EOF {
			err = nil
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil, emptyOK && err == io.EOF:
		return true
	case errors.As(err, &tooLarge):
		writeServeError(w, fmt.Errorf("%w: over %d bytes", ErrTooLarge, maxBodyBytes))
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error(), Code: codeBadInput})
	}
	return false
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	class, probs, err := s.Predict(r.Context(), window.Matrix(req.Matrix))
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
	var req ForecastRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	hist := make([]window.Matrix, len(req.History))
	for i, mat := range req.History {
		hist[i] = window.Matrix(mat)
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
	// An empty body means "reload the configured path".
	var req reloadRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	if err := s.Reload(req.Path); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"reloaded": true})
}
