package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quanterference/internal/monitor/window"
)

// oversizedBody is a syntactically valid /v1/predict body just over
// maxBodyBytes, so only the size limit can reject it.
func oversizedBody() []byte {
	row := "[" + strings.Repeat("0.125,", maxBodyBytes/6) + "0]"
	return []byte(`{"matrix":[` + row + `]}`)
}

// TestBodyTooLarge pins the body limit over real HTTP: an oversized
// /v1/predict or /v1/forecast body is a 413 with code too_large, the typed
// client maps it to ErrTooLarge, and a normal request on the same server
// still succeeds.
func TestBodyTooLarge(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{Forecaster: testForecaster(4, 5, []int{1})})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, route := range []string{"/predict", "/forecast"} {
		resp, err := http.Post(ts.URL+v1(route), "application/json", bytes.NewReader(oversizedBody()))
		if err != nil {
			t.Fatal(err)
		}
		var body errorResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: undecodable 413 body: %v", route, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || body.Code != codeTooLarge {
			t.Fatalf("%s: status %d code %q, want 413 %q", route, resp.StatusCode, body.Code, codeTooLarge)
		}
	}

	ctx := context.Background()
	c := NewClient(ts.URL)
	huge := window.Matrix{make([]float64, maxBodyBytes/2)}
	_, err := c.Predict(ctx, huge)
	var apiErr *APIError
	if !errors.Is(err, ErrTooLarge) || !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("client oversized predict: %v, want ErrTooLarge with HTTP 413", err)
	}
	if _, err := c.Predict(ctx, mats[0]); err != nil {
		t.Fatalf("normal predict after a 413: %v", err)
	}
}

// TestTrailingDataRejected: a POST body holds exactly one JSON value. Data
// after it, garbage or a second value, is a 400 bad_input on every decoding
// route and acts on nothing, while trailing whitespace is accepted and an
// empty or whitespace-only reload body reloads the configured model. A
// predict body's one member is "matrix", spelled so: an extra member or
// another spelling is a 400 too.
func TestTrailingDataRejected(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	path := t.TempDir() + "/fw.json"
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	s := New(fw, Config{ModelPath: path, MaxBatch: 1, Forecaster: testForecaster(2, 5, []int{1})})
	defer s.Shutdown(context.Background())
	const (
		predict  = `{"matrix":[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]}`
		forecast = `{"history":[[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]],[[0,0,0,0,0],[0,0,0,0,0],[1,1,1,1,1]]]}`
		reload   = `{"path":""}`
	)
	for _, tc := range []struct {
		route, body string
		status      int
	}{
		{"/predict", predict, http.StatusOK},
		{"/predict", predict + " \n\t", http.StatusOK},
		{"/predict", predict + " garbage", http.StatusBadRequest},
		{"/predict", predict + predict, http.StatusBadRequest},
		{"/predict", predict + " 1", http.StatusBadRequest},
		{"/predict", `{"matrix":[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]],"extra":1}`, http.StatusBadRequest},
		{"/predict", `{"Matrix":[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]}`, http.StatusBadRequest},
		{"/forecast", forecast, http.StatusOK},
		{"/forecast", forecast + "\n", http.StatusOK},
		{"/forecast", forecast + " garbage", http.StatusBadRequest},
		{"/forecast", forecast + forecast, http.StatusBadRequest},
		{"/admin/reload", reload, http.StatusOK},
		{"/admin/reload", reload + " x", http.StatusBadRequest},
		{"/admin/reload", reload + reload, http.StatusBadRequest},
		{"/admin/reload", "", http.StatusOK},
		{"/admin/reload", " \n\t ", http.StatusOK},
	} {
		before, _ := s.Stats().Counter("serve", "", "reloads")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, v1(tc.route), strings.NewReader(tc.body)))
		var body errorResponse
		json.Unmarshal(rec.Body.Bytes(), &body)
		wantCode := ""
		if tc.status != http.StatusOK {
			wantCode = codeBadInput
		}
		if rec.Code != tc.status || body.Code != wantCode {
			t.Errorf("%s %q: status %d code %q, want %d %q", tc.route, tc.body, rec.Code, body.Code, tc.status, wantCode)
		}
		after, _ := s.Stats().Counter("serve", "", "reloads")
		if reloaded := after > before; reloaded != (tc.route == "/admin/reload" && tc.status == http.StatusOK) {
			t.Errorf("%s %q: reloaded = %v", tc.route, tc.body, reloaded)
		}
	}
}

// handlerFuzz feeds one POST body to route and fails on any 5xx, on a 200
// to a body that is not exactly one JSON value, or on a 200 whose answer is
// not valid JSON. Panics fail the fuzz run by themselves.
func handlerFuzz(t *testing.T, h http.Handler, route string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, v1(route), bytes.NewReader(body)))
	if rec.Code >= 500 {
		t.Fatalf("%s answered %d: %s", route, rec.Code, rec.Body.String())
	}
	if rec.Code == http.StatusOK && !json.Valid(body) {
		t.Fatalf("%s answered 200 to a body that is not one JSON value: %q", route, body)
	}
	if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s answered 200 with invalid JSON: %q", route, rec.Body.String())
	}
}

// FuzzHandlePredict throws arbitrary bodies at /v1/predict: every input must
// be answered with a 2xx or 4xx, never a panic or a 5xx. Run with make fuzz.
func FuzzHandlePredict(f *testing.F) {
	fw, _ := trainedFramework(f, 3, 5)
	s := New(fw, Config{MaxBatch: 1}) // answer at once: no batch window per exec
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	for _, seed := range []string{
		`{"matrix":[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]}`,
		`{"matrix":[[0,0,0,0,0],[0,0`,
		`{"matrix":[[0,0,0],[0,0,0]]}`,
		`{"matrix":[]}`,
		`{"matrix":[[]]}`,
		`{"matrix":"nope"}`,
		`[1,2,3]`,
		`{"matrix":[[NaN,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]}`,
		`{"matrix":[[1e308,-1e308,1e308,1e308,1e308],[1e308,1e308,1e308,1e308,1e308],[1e308,1e308,1e308,1e308,1e308]]}`,
		`{"matrix":[[1e999,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]}`,
		`{"matrix":[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]} garbage`,
		string(oversizedBody()),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		handlerFuzz(t, s.Handler(), "/predict", body)
	})
}

// FuzzHandleForecast is FuzzHandlePredict for /v1/forecast.
func FuzzHandleForecast(f *testing.F) {
	fw, _ := trainedFramework(f, 3, 5)
	s := New(fw, Config{Forecaster: testForecaster(2, 3, []int{1, 2})})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	for _, seed := range []string{
		`{"history":[[[0,0,0]],[[0,0,0],[1,1,1]]]}`,
		`{"history":[[[0,0,0]],[[0,0`,
		`{"history":[[[0,0,0]]]}`,
		`{"history":[[],[]]}`,
		`{"history":[[[0,0]],[[0,0,0]]]}`,
		`{"history":{"a":1}}`,
		`{"history":[[[NaN,0,0]],[[0,0,0]]]}`,
		`{"history":[[[1e308,-1e308,1e308]],[[1e308,1e308,-1e308]]]}`,
		`{"history":[[[1e999,0,0]],[[0,0,0]]]}`,
		`{"history":[[[0,0,0]],[[0,0,0]]]}{"history":[[[0,0,0]],[[0,0,0]]]}`,
		string(oversizedBody()),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		handlerFuzz(t, s.Handler(), "/forecast", body)
	})
}
