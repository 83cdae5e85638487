package serve

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// TestPanicRecoveryMiddleware: a panicking handler answers 500 with the JSON
// error shape, panics_total moves on /debug/stats, and the server keeps
// classifying afterwards — one buggy request must not take the worker down.
func TestPanicRecoveryMiddleware(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("m", testNet(t, 51, 8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{})
	// In-package seam: an extra route on the server's own mux, so the panic
	// unwinds through the exact middleware chain Handler() serves.
	srv.mux.HandleFunc("/debug/boom", func(http.ResponseWriter, *http.Request) {
		panic("injected test panic")
	})
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	resp, err := ts.Client().Get(ts.URL + "/debug/boom")
	if err != nil {
		t.Fatalf("request to panicking handler failed at transport level: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler status %d, want 500: %s", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("panicking handler body %q, want JSON error shape (%v)", raw, err)
	}
	if got := srv.Stats().PanicsTotal; got != 1 {
		t.Fatalf("panics_total = %d after one panic, want 1", got)
	}

	// The worker must still serve real traffic on the same connection pool.
	x := make([]float64, 8)
	cresp, body, rawc := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 3, Input: x})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("classify after panic: status %d: %s", cresp.StatusCode, rawc)
	}
	if len(body.Results) != 1 {
		t.Fatalf("classify after panic: %d results, want 1", len(body.Results))
	}
	if got := srv.Stats().PanicsTotal; got != 1 {
		t.Fatalf("panics_total = %d after healthy request, want still 1", got)
	}
}
