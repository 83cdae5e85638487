package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestParseChurnPlan: valid plans come back sorted by offset; each malformed
// operation is rejected.
func TestParseChurnPlan(t *testing.T) {
	ops, err := parseChurnPlan(" 3s restore http://a ; 1s snapshot http://a /tmp/a.snap;500ms join http://b;1s drain http://a; ")
	if err != nil {
		t.Fatal(err)
	}
	want := []churnOp{
		{At: 500 * time.Millisecond, Op: "join", URL: "http://b"},
		{At: time.Second, Op: "snapshot", URL: "http://a", Path: "/tmp/a.snap"},
		{At: time.Second, Op: "drain", URL: "http://a"},
		{At: 3 * time.Second, Op: "restore", URL: "http://a"},
	}
	if len(ops) != len(want) {
		t.Fatalf("parsed %+v, want %+v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}

	for _, tc := range []struct{ name, plan string }{
		{"fewer than 3 fields", "1s join"},
		{"bad offset", "soon join http://a"},
		{"negative offset", "-1s join http://a"},
		{"unknown op", "1s reboot http://a"},
		{"extra field on membership op", "1s leave http://a /tmp/x"},
		{"5 fields on snapshot", "1s snapshot http://a /tmp/x extra"},
		{"empty plan", " ; ;"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if ops, err := parseChurnPlan(tc.plan); err == nil {
				t.Fatalf("plan %q accepted as %+v", tc.plan, ops)
			}
		})
	}
}

// adminCall is one request the admin stub saw.
type adminCall struct {
	path string
	body string
}

// adminStub stands in for a router's /admin/backends and a worker's
// /admin/snapshot: it records every call and answers 409 to "leave".
func adminStub(t *testing.T) (*httptest.Server, func() []adminCall) {
	t.Helper()
	var mu sync.Mutex
	var calls []adminCall
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		calls = append(calls, adminCall{r.URL.Path, string(raw)})
		mu.Unlock()
		var op serve.BackendsOp
		if r.URL.Path == "/admin/backends" && json.Unmarshal(raw, &op) == nil && op.Op == "leave" {
			http.Error(w, "already leaving", http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts, func() []adminCall {
		mu.Lock()
		defer mu.Unlock()
		return append([]adminCall(nil), calls...)
	}
}

// TestRunChurn: each op reaches its endpoint with serve's admin body, a
// non-200 is recorded without stopping the run, and cancellation marks the
// ops not yet run with the context's error.
func TestRunChurn(t *testing.T) {
	ts, calls := adminStub(t)
	worker := ts.URL + "/" // trailing slash: endpoints must still resolve
	ops := []churnOp{
		{Op: "join", URL: "http://w1"},
		{Op: "leave", URL: "http://w2"},
		{Op: "snapshot", URL: worker, Path: "/tmp/w.snap"},
		{Op: "snapshot", URL: worker},
		{At: 10 * time.Millisecond, Op: "drain", URL: "http://w1"},
		{At: 10 * time.Millisecond, Op: "restore", URL: "http://w1"},
	}
	results := runChurn(context.Background(), ts.Client(), ts.URL+"/", ops)
	if len(results) != len(ops) {
		t.Fatalf("%d results for %d ops", len(results), len(ops))
	}
	mustJSON := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	want := []adminCall{
		{"/admin/backends", mustJSON(serve.BackendsOp{Op: "join", URL: "http://w1"})},
		{"/admin/backends", mustJSON(serve.BackendsOp{Op: "leave", URL: "http://w2"})},
		{"/admin/snapshot", mustJSON(serve.SnapshotRequest{Path: "/tmp/w.snap"})},
		{"/admin/snapshot", `{}`},
		{"/admin/backends", mustJSON(serve.BackendsOp{Op: "drain", URL: "http://w1"})},
		{"/admin/backends", mustJSON(serve.BackendsOp{Op: "restore", URL: "http://w1"})},
	}
	got := calls()
	if len(got) != len(want) {
		t.Fatalf("stub saw %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for i, res := range results {
		if res.Op != ops[i] {
			t.Errorf("result %d is for %+v, want %+v", i, res.Op, ops[i])
		}
		if i == 1 {
			if res.Status != http.StatusConflict || res.Err == nil || !strings.Contains(res.Err.Error(), "already leaving") {
				t.Errorf("rejected leave recorded as status %d, err %v", res.Status, res.Err)
			}
			continue
		}
		if res.Status != http.StatusOK || res.Err != nil {
			t.Errorf("op %d (%s): status %d, err %v", i, res.Op.Op, res.Status, res.Err)
		}
	}

	// Cancellation while waiting for a far-off op: it and every later op
	// carry ctx.Err(); the ops already run keep their outcomes.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ops = []churnOp{
		{Op: "join", URL: "http://w3"},
		{At: time.Hour, Op: "drain", URL: "http://w3"},
		{At: time.Hour, Op: "restore", URL: "http://w3"},
	}
	begin := time.Now()
	results = runChurn(ctx, ts.Client(), ts.URL, ops)
	if took := time.Since(begin); took >= time.Second {
		t.Fatalf("cancelled churn run returned after %v", took)
	}
	if len(results) != 3 || results[0].Err != nil || results[0].Status != http.StatusOK {
		t.Fatalf("results %+v", results)
	}
	for _, res := range results[1:] {
		if res.Err != context.DeadlineExceeded || res.Status != 0 {
			t.Errorf("%s after cancel: status %d, err %v; want ctx.Err()", res.Op.Op, res.Status, res.Err)
		}
	}
	if n := len(calls()); n != len(want)+1 {
		t.Errorf("stub saw %d calls, want %d: cancelled ops must not be sent", n, len(want)+1)
	}
}
