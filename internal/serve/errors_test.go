package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
)

// errorServer builds a server with tight request caps so limit violations are
// cheap to trigger.
func errorServer(tb testing.TB) *Server {
	tb.Helper()
	reg := NewRegistry()
	if _, err := reg.Register("alpha", testNet(tb, 1, 8, 4, 2), nil); err != nil {
		tb.Fatal(err)
	}
	return NewServer(reg, Config{MaxBatch: 4, MaxSPF: 4, MaxItems: 3})
}

// TestClassifyMalformedPayloads is the table-driven error-path suite: every
// malformed request must produce the right status and a JSON error body, and
// must never take the pipeline down for well-formed traffic that follows.
func TestClassifyMalformedPayloads(t *testing.T) {
	srv := errorServer(t)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantErr    string // substring of the JSON error
	}{
		{"get classify", http.MethodGet, "/v1/classify", "", http.StatusMethodNotAllowed, "POST"},
		{"empty body", http.MethodPost, "/v1/classify", "", http.StatusBadRequest, "bad request body"},
		{"truncated json", http.MethodPost, "/v1/classify", `{"model":"alpha"`, http.StatusBadRequest, "bad request body"},
		{"not json", http.MethodPost, "/v1/classify", "classify please", http.StatusBadRequest, "bad request body"},
		{"unknown field", http.MethodPost, "/v1/classify", `{"model":"alpha","seeed":1,"input":[0.5]}`, http.StatusBadRequest, "bad request body"},
		{"wrong input type", http.MethodPost, "/v1/classify", `{"model":"alpha","input":"0.5"}`, http.StatusBadRequest, "bad request body"},
		{"trailing data", http.MethodPost, "/v1/classify", `{"model":"alpha","seed":1,"input":[0.5]} trailing`, http.StatusBadRequest, "invalid character 't' after top-level value"},
		{"second value", http.MethodPost, "/v1/classify", `{"model":"alpha","seed":1,"input":[0.5]} {}`, http.StatusBadRequest, "invalid character '{' after top-level value"},
		{"negative seed", http.MethodPost, "/v1/classify", `{"model":"alpha","seed":-1,"input":[0.5]}`, http.StatusBadRequest, "bad request body"},
		{"unknown model", http.MethodPost, "/v1/classify", `{"model":"nope","input":[0.5]}`, http.StatusNotFound, "unknown model"},
		{"missing model", http.MethodPost, "/v1/classify", `{"input":[0.5]}`, http.StatusNotFound, "unknown model"},
		{"no inputs", http.MethodPost, "/v1/classify", `{"model":"alpha"}`, http.StatusBadRequest, "no inputs"},
		{"empty inputs array", http.MethodPost, "/v1/classify", `{"model":"alpha","inputs":[]}`, http.StatusBadRequest, "no inputs"},
		{"both input forms", http.MethodPost, "/v1/classify", `{"model":"alpha","input":[0.5],"inputs":[[0.5]]}`, http.StatusBadRequest, "exactly one"},
		{"empty input vector", http.MethodPost, "/v1/classify", `{"model":"alpha","input":[]}`, http.StatusBadRequest, "features"},
		{"oversize input vector", http.MethodPost, "/v1/classify", `{"model":"alpha","input":[0,0,0,0,0,0,0,0,0]}`, http.StatusBadRequest, "features"},
		{"one bad input among good", http.MethodPost, "/v1/classify", `{"model":"alpha","inputs":[[0.5],[]]}`, http.StatusBadRequest, "input 1"},
		{"too many inputs", http.MethodPost, "/v1/classify", `{"model":"alpha","inputs":[[0.5],[0.5],[0.5],[0.5]]}`, http.StatusRequestEntityTooLarge, "exceeds limit"},
		{"negative spf", http.MethodPost, "/v1/classify", `{"model":"alpha","spf":-2,"input":[0.5]}`, http.StatusBadRequest, "spf"},
		{"huge spf", http.MethodPost, "/v1/classify", `{"model":"alpha","spf":5,"input":[0.5]}`, http.StatusBadRequest, "spf"},
		{"post models", http.MethodPost, "/v1/models", "{}", http.StatusMethodNotAllowed, "GET"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.Contains(er.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.wantErr)
			}
		})
	}

	// The pipeline survives the abuse: a valid request still classifies.
	resp, out, raw := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "alpha", Seed: 1, Input: []float64{0.5, 1, 0, 0.25}})
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("valid request after error storm: status %d body %s", resp.StatusCode, raw)
	}
}

// TestWorkerRouterRejectIdentically: a body gets the same reply through the
// router as from a worker directly, status and bytes — malformed, truncated
// and oversize bodies the router rejects itself included.
func TestWorkerRouterRejectIdentically(t *testing.T) {
	f := newFleet(t, 1, map[string]*nn.Network{"alpha": testNet(t, 1, 8, 4, 2)},
		Config{MaxBatch: 4, MaxSPF: 4, MaxItems: 3}, RouterConfig{})
	oversize := `{"model":"alpha","seed":1,"input":[0.5]}` + strings.Repeat(" ", 16<<20)
	cases := []struct{ name, body string }{
		{"valid", `{"model":"alpha","seed":1,"input":[0.5]}`},
		{"trailing whitespace", "{\"model\":\"alpha\",\"seed\":1,\"input\":[0.5]} \r\n\t"},
		{"trailing data", `{"model":"alpha","seed":1,"input":[0.5]} trailing`},
		{"second value", `{"model":"alpha","seed":1,"input":[0.5]} {}`},
		{"unknown field", `{"model":"alpha","seed":1,"input":[0.5],"extra":1}`},
		{"noncanonical keys", `{"Model":"alpha","SEED":1,"input":[0.5]}`},
		{"truncated", `{"model":"alpha"`},
		{"not json", "classify please"},
		{"oversize", oversize},
	}
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, wb := post(f.backends[0].URL, tc.body)
			rs, rb := post(f.front.URL, tc.body)
			if ws != rs || wb != rb {
				t.Fatalf("worker %d %s, router %d %s", ws, wb, rs, rb)
			}
		})
	}
}

var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

// FuzzClassifyHandler throws arbitrary bytes at the classify endpoint: the
// handler must never panic and must always answer a known status with a JSON
// body. Request caps keep accepted payloads cheap.
func FuzzClassifyHandler(f *testing.F) {
	f.Add([]byte(`{"model":"alpha","seed":3,"spf":2,"input":[0.5,0.25,0,1]}`))
	f.Add([]byte(`{"model":"alpha","inputs":[[0.1],[0.9]]}`))
	f.Add([]byte(`{"model":"nope","input":[0.5]}`))
	f.Add([]byte(`{"model":"alpha","spf":-1}`))
	f.Add([]byte(`{"model":"alpha","input":[1e308,-1e308,0.5]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"model":"alpha","input":[0.5],"extra":true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzSrvOnce.Do(func() { fuzzSrv = errorServer(t) })
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		fuzzSrv.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusRequestEntityTooLarge, http.StatusRequestTimeout,
			http.StatusServiceUnavailable, http.StatusInternalServerError:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.Bytes(), body)
		}
	})
}
