package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"quanterference/internal/monitor/window"
	"quanterference/internal/sim"
)

// sameBits reports whether two matrices have the same shape and the same
// float bits, and whether every row of got is capped at its length.
func sameBits(got window.Matrix, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for r := range got {
		if len(got[r]) != len(want[r]) || cap(got[r]) != len(got[r]) {
			return false
		}
		for j := range got[r] {
			if math.Float64bits(got[r][j]) != math.Float64bits(want[r][j]) {
				return false
			}
		}
	}
	return true
}

// sameHistory is sameBits over every window of a history, each window also
// capped at its row count.
func sameHistory(got []window.Matrix, want [][][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for w := range got {
		if cap(got[w]) != len(got[w]) || !sameBits(got[w], want[w]) {
			return false
		}
	}
	return true
}

func mustMarshal(tb testing.TB, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// servedMatrix is a 7-target × 34-feature raw window, its values spanning
// several magnitudes.
func servedMatrix(seed int64) [][]float64 {
	rng := sim.NewRNG(seed)
	mat := make([][]float64, 7)
	for t := range mat {
		mat[t] = make([]float64, 34)
		for f := range mat[t] {
			mat[t][f] = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-3))
		}
	}
	return mat
}

// servedBody is a /v1/predict body as the client sends it.
func servedBody(tb testing.TB, seed int64) []byte {
	return mustMarshal(tb, PredictRequest{Matrix: servedMatrix(seed)})
}

// servedHistory is a /v1/forecast body of four windows.
func servedHistory(tb testing.TB, seed int64) []byte {
	var hist [][][]float64
	for w := int64(0); w < 4; w++ {
		hist = append(hist, servedMatrix(seed+w))
	}
	return mustMarshal(tb, ForecastRequest{History: hist})
}

// codecSeeds returns bodies on both sides of the grammar. Those the codec
// accepts hold json.Marshal output with the numbers whose text is hardest
// to round-trip; those it refuses include JSON that encoding/json accepts.
func codecSeeds(tb testing.TB) (accept, refuse []string) {
	edge := [][]float64{
		{math.Copysign(0, -1), 1e-07, 1e+21, 5e-324, 2.2250738585072014e-308},
		{0.30000000000000004, 1.7976931348623157e308, -123456789.12345678, 1, 0},
	}
	predict := string(mustMarshal(tb, PredictRequest{Matrix: edge}))
	indented, err := json.MarshalIndent(PredictRequest{Matrix: edge}, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	accept = []string{
		predict,
		string(mustMarshal(tb, ForecastRequest{History: [][][]float64{edge, edge}})),
		string(indented),
		" \t\r\n" + predict + " \t\r\n",
		`{"matrix":[[1e-999,-0.0,1E+2,0.5e-3]]}`,
		`{"history":[[[1,2],[3,4]],[[5,6]],[[7,8],[9,10],[11,12]]]}`,
		`{"matrix":[]}`,
		`{"matrix":[[]]}`,
		`{"history":[]}`,
		`{"history":[[]]}`,
	}
	refuse = []string{
		`{"matrix":[[1,2]],"extra":1}`,
		`{"extra":1,"matrix":[[1,2]]}`,
		`{"Matrix":[[1,2]]}`,
		`{"matri\u0078":[[1,2]]}`,
		`{"matrix":[[1,2]],"matrix":[[3]]}`,
		`{"history":[[[1]]],"history":[[[2]]]}`,
		`{"matrix":null}`,
		`{"matrix":[[null]]}`,
		`{"matrix":[["1"]]}`,
		`{"matrix":[[NaN]]}`,
		`{"matrix":[[1e999]]}`,
		`{"matrix":[[01]]}`,
		`{"matrix":[[+1]]}`,
		`{"matrix":[[.5]]}`,
		`{"matrix":[[5.]]}`,
		`{"matrix":[[1e]]}`,
		`{"matrix":[[-]]}`,
		`{"matrix":[[1,]]}`,
		`{"matrix":[[1 2]]}`,
		`{"matrix":[[1]]} x`,
		`{"matrix":[[1]]}{"matrix":[[1]]}`,
		`{"history":[[[1]]]} 1`,
		`{"history":[[1]]}`,
		`{}`,
		``,
	}
	return accept, refuse
}

// TestDecodeMatchesEncodingJSON: every body the codec should accept decodes
// to json.Unmarshal's shape and float bits, and every body outside the
// grammar is refused whatever encoding/json makes of it.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	accept, refuse := codecSeeds(t)
	accept = append(accept, string(servedBody(t, 1)), string(servedHistory(t, 1)))
	for _, body := range accept {
		if strings.Contains(body, "matrix") {
			var req PredictRequest
			mat, err := decodePredict([]byte(body))
			if err != nil || json.Unmarshal([]byte(body), &req) != nil || !sameBits(mat, req.Matrix) {
				t.Errorf("decodePredict(%.60q) = %v, %v; want encoding/json's %v, rows capped", body, mat, err, req.Matrix)
			}
		} else {
			var req ForecastRequest
			hist, err := decodeForecast([]byte(body))
			if err != nil || json.Unmarshal([]byte(body), &req) != nil || !sameHistory(hist, req.History) {
				t.Errorf("decodeForecast(%.60q) = %v, %v; want encoding/json's %v, rows capped", body, hist, err, req.History)
			}
		}
	}
	for _, body := range refuse {
		if mat, err := decodePredict([]byte(body)); err == nil {
			t.Errorf("decodePredict(%q) accepted: %v", body, mat)
		}
		if hist, err := decodeForecast([]byte(body)); err == nil {
			t.Errorf("decodeForecast(%q) accepted: %v", body, hist)
		}
	}
}

// TestDecodePredictAllocs pins the codec's allocations on a served-size
// body: the row headers and one backing array, whatever the row count.
func TestDecodePredictAllocs(t *testing.T) {
	body := servedBody(t, 2)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodePredict(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decoding a 7x34 predict body made %.1f allocations, want at most 2", allocs)
	}
}

// FuzzDecodeBodies checks the codec against encoding/json on any bytes: a
// body the codec accepts, json.Unmarshal accepts too with the same shape
// and float bits, and the codec accepts nothing json.Valid rejects. Run
// with make fuzz.
func FuzzDecodeBodies(f *testing.F) {
	accept, refuse := codecSeeds(f)
	for _, seed := range append(accept, refuse...) {
		f.Add([]byte(seed))
	}
	f.Add(servedBody(f, 3))
	f.Add(servedHistory(f, 3))
	f.Fuzz(func(t *testing.T, body []byte) {
		if mat, err := decodePredict(body); err == nil {
			var req PredictRequest
			if !json.Valid(body) {
				t.Fatalf("decodePredict accepted invalid JSON %q", body)
			}
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("decodePredict accepted %q, encoding/json refuses it: %v", body, err)
			}
			if !sameBits(mat, req.Matrix) {
				t.Fatalf("decodePredict(%q) = %v; want encoding/json's %v, rows capped", body, mat, req.Matrix)
			}
		}
		if hist, err := decodeForecast(body); err == nil {
			var req ForecastRequest
			if !json.Valid(body) {
				t.Fatalf("decodeForecast accepted invalid JSON %q", body)
			}
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("decodeForecast accepted %q, encoding/json refuses it: %v", body, err)
			}
			if !sameHistory(hist, req.History) {
				t.Fatalf("decodeForecast(%q) = %v; want encoding/json's %v, rows capped", body, hist, req.History)
			}
		}
	})
}

// BenchmarkDecodeBodies times the codec against encoding/json on the served
// body sizes: one 7x34 predict matrix, and a forecast history of four.
func BenchmarkDecodeBodies(b *testing.B) {
	predict, forecast := servedBody(b, 4), servedHistory(b, 4)
	b.Run("predict/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodePredict(predict); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("predict/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PredictRequest
			if err := json.Unmarshal(predict, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forecast/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeForecast(forecast); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forecast/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ForecastRequest
			if err := json.Unmarshal(forecast, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
