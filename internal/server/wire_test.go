package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/x10"
)

// checkCompact decodes body into v and requires body to be exactly
// json.Compact of v's indented encoding, plus the trailing newline.
func checkCompact(t *testing.T, what string, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: decode: %v\n%s", what, err, body)
	}
	indented, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, indented); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("%s: body is not the compacted indented encoding\n got %s\nwant %s", what, body, want.Bytes())
	}
	if bytes.Contains(body, []byte("\n ")) || bytes.Count(body, []byte("\n")) != 1 {
		t.Errorf("%s: body is indented or not one line:\n%s", what, body)
	}
}

// TestWireBodiesCompact: the /v1/analyze, /v1/delta and /v1/batch
// bodies are one line of compact JSON, byte for byte the compacted
// form of the indented encoding of the same response value.
func TestWireBodiesCompact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := mustWorkload(t, "raytracer").Program()
	src := syntax.Print(p)

	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
	if status != http.StatusOK {
		t.Fatalf("analyze: %d: %s", status, data)
	}
	checkCompact(t, "analyze", data, &AnalyzeResponse{})

	edited := syntax.Print(progen.AppendSkip(p, 0))
	for i, s := range []string{src, edited} {
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "wire", Source: s})
		if status != http.StatusOK {
			t.Fatalf("delta %d: %d: %s", i, status, data)
		}
		var resp DeltaResponse
		checkCompact(t, "delta", data, &resp)
		if (resp.Delta != nil) != (i == 1) {
			t.Errorf("delta %d: delta stats present = %v", i, resp.Delta != nil)
		}
	}

	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Programs: []BatchProgram{
		{Name: "ok", Source: src},
		{Name: "bad", Source: "array 1; void main() {"},
	}})
	if status != http.StatusOK {
		t.Fatalf("batch: %d: %s", status, data)
	}
	checkCompact(t, "batch", data, &BatchResponse{})
}

// TestColdAnalyzeAllocation: a cold /v1/analyze of plasma through the
// handler — X10 decode, front end, generation, solve, report and
// encode — allocates under 8 MB. Generation, the report clients and
// the compact encoder allocate in proportion to their output, not to
// labels² or to an indented copy of the body. It measures about
// 5.5 MB (6.3 MB under -race); with n-bit Lcross singletons,
// quadratic report clients and indented bodies it took 9.7 MB.
func TestColdAnalyzeAllocation(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	src := x10.Render(mustWorkload(t, "plasma").Unit())
	post := func(name string) uint64 {
		body, err := json.Marshal(AnalyzeRequest{Source: src + "\ndef " + name + "() {\n}\n", Language: "x10"})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&ms1)
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze: %d: %s", rec.Code, rec.Body)
		}
		return ms1.TotalAlloc - ms0.TotalAlloc
	}
	post("warm") // first-use setup (pools, front-end tables) is not per request
	const limit = 8 << 20
	got := post("cold")
	t.Logf("cold plasma analyze allocated %.2f MB", float64(got)/(1<<20))
	if got >= limit {
		t.Errorf("cold plasma analyze allocated %.2f MB, want < %d MB", float64(got)/(1<<20), limit>>20)
	}
}
