package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/rng"
	"repro/internal/synth/digits"
)

// digitInput renders one 784-pixel synthetic digit: the input the perfbench
// serve workload and the load generators send.
func digitInput() []float64 {
	return digits.Render(rng.NewPCG32(7, 1), 3, 1, 0.06)
}

// digitBody is a perfbench-shaped classify body: its fields in the order
// perfbench writes them, the pixels as json.Marshal writes them.
func digitBody(tb testing.TB, copies int) []byte {
	tb.Helper()
	x, err := json.Marshal(digitInput())
	if err != nil {
		tb.Fatal(err)
	}
	b := []byte(`{"model":"digits","seed":7,"spf":4`)
	if copies > 1 {
		b = fmt.Appendf(b, `,"copies":%d,"conf":%g`, copies, 0.99)
	}
	b = append(b, `,"input":`...)
	b = append(b, x...)
	return append(b, '}')
}

// sameRequest reports whether two decoded requests are equal with every
// float bit-identical (reflect.DeepEqual alone equates 0 and -0).
func sameRequest(a, b ClassifyRequest) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	same := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a.Inputs {
		if !same(a.Inputs[i], b.Inputs[i]) {
			return false
		}
	}
	return same(a.Input, b.Input) &&
		(a.Conf == nil || math.Float64bits(*a.Conf) == math.Float64bits(*b.Conf))
}

// TestClassifyDecodeFastPath: every request shape the clients send —
// json.Marshal'd input, inputs, copies and conf forms, indented or not, and
// perfbench's own field order — takes the single-pass scan, and the scan
// equals the encoding/json reference bit for bit. A body that silently fell
// back to encoding/json fails here, not only in a benchmark.
func TestClassifyDecodeFastPath(t *testing.T) {
	conf0, conf99 := 0.0, 0.99
	reqs := []ClassifyRequest{
		{},
		{Model: "alpha", Seed: 3, SPF: 2, Input: []float64{0.5, 0.25, 0, 1}},
		{Model: "alpha", Inputs: [][]float64{{0.1}, {0.9, math.Copysign(0, -1)}, {}}},
		{Model: "alpha", Input: []float64{}},
		{Model: "alpha", Inputs: [][]float64{}},
		{Model: "digits", Seed: math.MaxUint64, SPF: 4, Input: digitInput(), Copies: 16, Conf: &conf99},
		{Model: "m-1.v2", Seed: 1, Copies: 8, Conf: &conf0,
			Input: []float64{1e-300, 5e-324, math.MaxFloat64, -2.5e21, 123456789.125, 1e-7}},
		{Model: "neg", SPF: -3, Copies: -1, Input: []float64{-1}},
	}
	var bodies [][]byte
	for _, req := range reqs {
		for _, indent := range []string{"", "  "} {
			body, err := json.MarshalIndent(req, "", indent)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	bodies = append(bodies, digitBody(t, 1), digitBody(t, 16), []byte(" \r\n{ } \t\n"))
	for _, body := range bodies {
		want, err := decodeClassifyJSON(body)
		if err != nil {
			t.Fatalf("reference rejects %.80s: %v", body, err)
		}
		var got ClassifyRequest
		if !scanClassify(body, &got, true) {
			t.Fatalf("fast path declined %.80s", body)
		}
		if !sameRequest(got, want) {
			t.Fatalf("fast path decoded %.80s as %+v, reference %+v", body, got, want)
		}
		var key ClassifyRequest
		if !scanClassify(body, &key, false) {
			t.Fatalf("router scan declined %.80s", body)
		}
		if key.Model != want.Model || key.Seed != want.Seed {
			t.Fatalf("router scan key (%q, %d), want (%q, %d)", key.Model, key.Seed, want.Model, want.Seed)
		}
	}
}

// TestClassifyDecodeFallback: bodies outside the canonical shape are declined
// by the scan and decoded by encoding/json, which keeps its case folding,
// duplicate-key, escape and null semantics and words every error.
func TestClassifyDecodeFallback(t *testing.T) {
	cases := []struct {
		body    string
		want    ClassifyRequest
		wantErr string
	}{
		{body: `{"Model":"alpha","SEED":2,"input":[1]}`, want: ClassifyRequest{Model: "alpha", Seed: 2, Input: []float64{1}}},
		{body: `{"model":"al\u0070ha","input":[1]}`, want: ClassifyRequest{Model: "alpha", Input: []float64{1}}},
		{body: "{\"model\":\"alpha\",\"\u017feed\":2,\"input\":[1]}", want: ClassifyRequest{Model: "alpha", Seed: 2, Input: []float64{1}}},
		{body: `{"model":"alpha","model":"beta","input":[1]}`, want: ClassifyRequest{Model: "beta", Input: []float64{1}}},
		{body: `{"model":"alpha","conf":null,"input":null,"inputs":[[1],null]}`, want: ClassifyRequest{Model: "alpha", Inputs: [][]float64{{1}, nil}}},
		{body: `{"model":"alpha","input":[1e400]}`, wantErr: "cannot unmarshal number 1e400"},
		{body: `{"model":"alpha","seed":1.5}`, wantErr: "cannot unmarshal number 1.5"},
		{body: `{"model":"alpha","spf":99999999999999999999}`, wantErr: "cannot unmarshal number"},
		{body: `{"model":"alpha","input":[01]}`, wantErr: "invalid character '1'"},
		{body: `{"model":"alpha","input":[1.]}`, wantErr: "invalid character ']'"},
		{body: `{"model":"alpha","input":[.5]}`, wantErr: "invalid character '.'"},
		{body: `{"model":"alpha","input":[1],}`, wantErr: "invalid character '}'"},
		{body: `{"model":"alpha","extra":1}`, wantErr: `unknown field "extra"`},
		{body: `{"model":"alpha","input":[0.5]} trailing`, wantErr: "invalid character 't' after top-level value"},
		{body: `{"model":"alpha","input":[0.5]}{}`, wantErr: "invalid character '{' after top-level value"},
		{body: `null`, want: ClassifyRequest{}},
		{body: ``, wantErr: "unexpected end of JSON input"},
		{body: `{"model":"alpha"`, wantErr: "unexpected end of JSON input"},
	}
	for _, tc := range cases {
		var scanned ClassifyRequest
		if scanClassify([]byte(tc.body), &scanned, true) {
			t.Errorf("fast path accepted %s", tc.body)
		}
		got, err := decodeClassify([]byte(tc.body))
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one mentioning %q", tc.body, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.body, err)
		case !sameRequest(got, tc.want):
			t.Errorf("%s: decoded %+v, want %+v", tc.body, got, tc.want)
		}
	}
}

// TestClassifyDecodeReadError: a worker whose body read fails answers 400
// "read request body: ..." before it decodes anything — after a complete
// request, inside a truncated one, or after data following the value — as
// the router does.
func TestClassifyDecodeReadError(t *testing.T) {
	srv := errorServer(t)
	defer srv.Close()
	errRead := errors.New("read failed")
	for _, body := range []string{
		`{"model":"alpha","input":[0.5]}`,
		`{"model":"alpha","input":[0.5]}   `,
		`{"model":"al`,
		`{"model":"alpha","input":[0.5]} x`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify",
			io.MultiReader(strings.NewReader(body), iotest.ErrReader(errRead)))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "read request body: read failed") {
			t.Errorf("%s: %d %s, want 400 with the read error", body, rec.Code, rec.Body.Bytes())
		}
	}
}

// FuzzClassifyDecode: whenever the single-pass scan accepts a body,
// encoding/json accepts it too and decodes an equal request, every float
// bit-identical; the router's scan agrees with json.Unmarshal into
// shardFields on accept/reject and on the (model, seed) key.
func FuzzClassifyDecode(f *testing.F) {
	f.Add(digitBody(f, 1))
	f.Add(digitBody(f, 16))
	for _, s := range []string{
		`{"model":"alpha","seed":3,"spf":2,"input":[0.5,0.25,0,1]}`,
		`{"model":"alpha","inputs":[[0.1],[0.9,-0],[]]}`,
		`{"model":"alpha","copies":4,"conf":0,"input":[1E+2,2e-3]}`,
		`{"model":"a\"b","input":[1]}`,
		`{"model":"al\u0070ha","input":[1]}`,
		`{"Model":"alpha","SEED":2,"input":[1]}`,
		"{\"model\":\"alpha\",\"\u017feed\":2,\"input\":[1]}",
		`{"model":"alpha","input":[1],"copies":2,"conf":0.5,"extra":1}`,
		"{\"model\":\"alpha\",\"\u212aey\":1,\"copies\":2}",
		`{"model":"alpha","seed":1,"seed":2,"input":[1]}`,
		`{"model":null,"seed":null,"input":[null],"conf":null}`,
		`{"model":"alpha","input":[1e400]}`,
		`{"model":"alpha","seed":-0,"spf":-0,"input":[-0]}`,
		`{"model":"alpha","input":[01]}`,
		`{"model":"alpha","input":[1.]}`,
		`{"model":"alpha","input":[.5]}`,
		`{"model":"alpha","seed":18446744073709551616}`,
		`{"model":"alpha","inputs":[[0.5],[1,2,3]],"spf":3}`,
		`{"model":"alpha","input":[0.5]} trailing`,
		`{"model":"alpha","input":[0.5]}{}`,
		" \t{\n\"model\" : \"alpha\" , \"input\" : [ 1 , 2 ] }\r\n",
		`{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast ClassifyRequest
		if scanClassify(body, &fast, true) {
			ref, err := decodeClassifyJSON(body)
			if err != nil {
				t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", body, err)
			}
			if !sameRequest(fast, ref) {
				t.Fatalf("fast path decoded %q as %+v, encoding/json as %+v", body, fast, ref)
			}
		}
		var want shardFields
		wantErr := json.Unmarshal(body, &want)
		var scanned ClassifyRequest
		if scanClassify(body, &scanned, false) {
			if wantErr != nil {
				t.Fatalf("router scan accepted %q, json.Unmarshal rejects it: %v", body, wantErr)
			}
			if scanned.Model != want.Model || scanned.Seed != want.Seed {
				t.Fatalf("router scan key (%q, %d), json.Unmarshal (%q, %d) for %q",
					scanned.Model, scanned.Seed, want.Model, want.Seed, body)
			}
		}
		got, err := shardKeyOf(body)
		if (err == nil) != (wantErr == nil) || (err == nil && got != want) {
			t.Fatalf("shardKeyOf(%q) = %+v, %v; json.Unmarshal %+v, %v", body, got, err, want, wantErr)
		}
	})
}
