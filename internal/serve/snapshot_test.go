package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
)

// warmRegistry builds a registry of randomized nets keyed by round, warms a
// deterministic seed set per model, and returns it with the per-model nets.
func warmRegistry(t *testing.T, round uint64) (*Registry, map[string]*nn.Network) {
	t.Helper()
	reg := NewRegistry()
	nets := map[string]*nn.Network{}
	src := rng.NewPCG32(round, 17)
	n := 1 + int(uint64(src.Uint32())%3)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("net-%d-%d", round, i)
		inputs := 6 + int(uint64(src.Uint32())%12)
		neurons := 4 + int(uint64(src.Uint32())%10)
		classes := 2 + int(uint64(src.Uint32())%3)
		net := testNet(t, round*31+uint64(i), inputs, neurons, classes)
		var meta *core.ModelMeta
		if i%2 == 0 {
			meta = &core.ModelMeta{Penalty: "biased", FloatAccuracy: 0.91}
		}
		e, err := reg.Register(name, net, meta)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = net
		for s := 0; s < 3+int(uint64(src.Uint32())%5); s++ {
			e.Sampled(uint64(src.Uint32()) % 1000)
		}
	}
	return reg, nets
}

// TestSnapshotRoundTripBitIdentical is the restore property test:
// restore(snapshot(registry)) into a cold registry yields a server whose
// /v1/classify responses are byte-identical to the original's for randomized
// nets and seeds, whose model catalog matches, and whose warm-cache key sets
// match exactly.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		reg1, nets := warmRegistry(t, uint64(round))
		raw, info, err := reg1.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if info.Models != len(reg1.Names()) {
			t.Fatalf("round %d: snapshot counted %d models, registry has %d", round, info.Models, len(reg1.Names()))
		}

		reg2 := NewRegistry()
		rinfo, err := reg2.RestoreSnapshot(raw)
		if err != nil {
			t.Fatalf("round %d: restore: %v", round, err)
		}
		if rinfo.Models != info.Models || rinfo.Seeds != info.Seeds {
			t.Fatalf("round %d: restore info %+v, snapshot info %+v", round, rinfo, info)
		}
		if !reflect.DeepEqual(reg1.Names(), reg2.Names()) {
			t.Fatalf("round %d: model sets differ: %v vs %v", round, reg1.Names(), reg2.Names())
		}
		// Snapshot determinism rider: the restored registry re-snapshots to the
		// exact bytes it was restored from (same models, meta, hot seeds).
		raw2, _, err := reg2.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("round %d: snapshot of the restored registry differs from the original document", round)
		}
		for _, name := range reg1.Names() {
			e1, _ := reg1.Get(name)
			e2, _ := reg2.Get(name)
			if !reflect.DeepEqual(e1.CacheKeys(), e2.CacheKeys()) {
				t.Fatalf("round %d: model %q warm seeds %v, restored %v", round, name, e1.CacheKeys(), e2.CacheKeys())
			}
			if !reflect.DeepEqual(e1.Meta, e2.Meta) {
				t.Fatalf("round %d: model %q meta %+v, restored %+v", round, name, e1.Meta, e2.Meta)
			}
		}

		// The externally visible property: both registries serve byte-identical
		// HTTP responses, including for the warm seeds and for cold ones.
		cfg := Config{MaxBatch: 4}
		ts1 := httptest.NewServer(NewServer(reg1, cfg).Handler())
		ts2 := httptest.NewServer(NewServer(reg2, cfg).Handler())
		src := rng.NewPCG32(uint64(round), 23)
		for name, net := range nets {
			dim := net.Layers[0].InDim
			for probe := 0; probe < 6; probe++ {
				x := make([]float64, dim)
				for j := range x {
					x[j] = rng.Float64(src)
				}
				req := ClassifyRequest{Model: name, Seed: uint64(src.Uint32()) % 1200, SPF: 1 + probe%3, Input: x}
				if probe%3 == 2 { // ensemble path too
					conf := 0.99
					req.Copies = 4
					req.Conf = &conf
				}
				resp1, _, raw1 := postClassify(t, ts1.Client(), ts1.URL, req)
				resp2, _, raw2 := postClassify(t, ts2.Client(), ts2.URL, req)
				if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
					t.Fatalf("round %d %s: statuses %d/%d: %s %s", round, name, resp1.StatusCode, resp2.StatusCode, raw1, raw2)
				}
				if raw1 != raw2 {
					t.Fatalf("round %d %s seed %d: responses diverge after restore:\n%s\n%s", round, name, req.Seed, raw1, raw2)
				}
			}
		}
		ts1.Close()
		ts2.Close()
	}
}

// TestSnapshotRestoreWarmsWithoutResampling: every hot seed restored from a
// snapshot must be served from cache afterwards — zero sample-cache misses
// on the restored replica for its pre-restart working set. This is the
// "rejoins warm" property the rolling-restart latency win rests on.
func TestSnapshotRestoreWarmsWithoutResampling(t *testing.T) {
	reg1, _ := warmRegistry(t, 99)
	raw, _, err := reg1.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	if _, err := reg2.RestoreSnapshot(raw); err != nil {
		t.Fatal(err)
	}
	for _, name := range reg2.Names() {
		e1, _ := reg1.Get(name)
		e2, _ := reg2.Get(name)
		_, missesAfterRestore := e2.CacheStats()
		for _, seed := range e1.CacheKeys() {
			e2.Sampled(seed)
		}
		if _, misses := e2.CacheStats(); misses != missesAfterRestore {
			t.Fatalf("model %q: %d cache misses serving the restored working set — restore left it cold",
				name, misses-missesAfterRestore)
		}
	}
}

// TestSnapshotRestoreIntoLoadedRegistry: restoring over a registry that
// already has a model of the same name (flag-loaded at boot) must not
// duplicate-register, and must still warm that model's hot seeds.
func TestSnapshotRestoreIntoLoadedRegistry(t *testing.T) {
	net := testNet(t, 3, 10, 6, 2)
	reg1 := NewRegistry()
	e1, err := reg1.Register("m", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1.Sampled(7)
	e1.Sampled(11)
	raw, _, err := reg1.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	e2, err := reg2.Register("m", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.RestoreSnapshot(raw); err != nil {
		t.Fatalf("restore over an already-registered model: %v", err)
	}
	if got := e2.CacheKeys(); !reflect.DeepEqual(got, []uint64{7, 11}) {
		t.Fatalf("hot seeds after restore over loaded registry = %v, want [7 11]", got)
	}
}

// corruptSnapshot reshapes a valid snapshot into each rejection case. The
// helper rebuilds a consistent envelope (fresh checksum) when the corruption
// targets the payload semantics rather than the integrity layer.
func reseal(t *testing.T, payload []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(&snapshotEnvelope{
		Magic: SnapshotMagic, Version: SnapshotVersion,
		Checksum: hex.EncodeToString(sum[:]), Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotRejectsCorrupt: every malformed document — wrong magic or
// version, checksum mismatch, truncation at any layer, bad model records —
// is rejected with an error, without panicking, and without mutating the
// registry (the cold-start fallback contract).
func TestSnapshotRejectsCorrupt(t *testing.T) {
	reg, _ := warmRegistry(t, 5)
	valid, _, err := reg.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(valid, &env); err != nil {
		t.Fatal(err)
	}
	netRaw := func() json.RawMessage {
		var p snapshotPayload
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			t.Fatal(err)
		}
		return p.Models[0].Net
	}()
	manySeeds := make([]uint64, MaxSnapshotSeeds+1)

	flipped := append([]byte(nil), valid...)
	flipped[bytes.Index(flipped, []byte(`"payload"`))+20] ^= 0x01

	cases := map[string][]byte{
		"empty":                      nil,
		"not json":                   []byte("spikes, not json"),
		"truncated half":             valid[:len(valid)/2],
		"truncated head":             valid[:10],
		"bad magic":                  nil, // filled in below
		"bad version":                nil, // filled in below
		"flipped bit":                flipped,
		"payload not payload-shaped": reseal(t, []byte(`"just a string"`)),
		"model without name":         reseal(t, mustJSON(t, snapshotPayload{Models: []snapshotModel{{Net: netRaw}}})),
		"duplicate model": reseal(t, mustJSON(t, snapshotPayload{Models: []snapshotModel{
			{Name: "x", Net: netRaw}, {Name: "x", Net: netRaw}}})),
		"hot-seed bomb": reseal(t, mustJSON(t, snapshotPayload{Models: []snapshotModel{
			{Name: "x", Net: netRaw, HotSeeds: manySeeds}}})),
		"invalid network": reseal(t, mustJSON(t, snapshotPayload{Models: []snapshotModel{
			{Name: "x", Net: json.RawMessage(`{"layers": []}`)}}})),
	}
	{
		badMagic, err := json.Marshal(&snapshotEnvelope{Magic: "tnserve-snapsh0t", Version: SnapshotVersion, Checksum: env.Checksum, Payload: env.Payload})
		if err != nil {
			t.Fatal(err)
		}
		cases["bad magic"] = badMagic
		badVersion, err := json.Marshal(&snapshotEnvelope{Magic: SnapshotMagic, Version: SnapshotVersion + 1, Checksum: env.Checksum, Payload: env.Payload})
		if err != nil {
			t.Fatal(err)
		}
		cases["bad version"] = badVersion
	}

	for name, doc := range cases {
		target := NewRegistry()
		if _, err := target.Register("pre", testNet(t, 1, 8, 4, 2), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := target.RestoreSnapshot(doc); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
		if got := target.Names(); len(got) != 1 || got[0] != "pre" {
			t.Errorf("%s: failed restore mutated the registry: %v", name, got)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotFileAndAdminEndpoint: the file helpers write atomically and
// restore; POST /admin/snapshot writes to the requested or configured path;
// without either it is a clean 400; GET is 405.
func TestSnapshotFileAndAdminEndpoint(t *testing.T) {
	dir := t.TempDir()
	reg, _ := warmRegistry(t, 12)
	path := filepath.Join(dir, "reg.snap")
	winfo, err := reg.WriteSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if winfo.Path != path || winfo.Models == 0 {
		t.Fatalf("write info %+v", winfo)
	}
	fresh := NewRegistry()
	if _, err := fresh.RestoreSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Names(), reg.Names()) {
		t.Fatalf("file round trip: %v vs %v", fresh.Names(), reg.Names())
	}
	// No stray temp files: the atomic write renamed or removed its temp.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir holds %d entries, want just the snapshot", len(entries))
	}

	cfgPath := filepath.Join(dir, "configured.snap")
	srv := NewServer(reg, Config{SnapshotPath: cfgPath})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Empty body → configured path.
	resp, err := ts.Client().Post(ts.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info SnapshotInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Path != cfgPath {
		t.Fatalf("admin snapshot: status %d info %+v", resp.StatusCode, info)
	}
	if _, err := os.Stat(cfgPath); err != nil {
		t.Fatalf("admin snapshot wrote nothing: %v", err)
	}

	// Explicit path overrides.
	reqPath := filepath.Join(dir, "requested.snap")
	body := mustJSON(t, SnapshotRequest{Path: reqPath})
	resp, err = ts.Client().Post(ts.URL+"/admin/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin snapshot with path: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(reqPath); err != nil {
		t.Fatalf("admin snapshot ignored the requested path: %v", err)
	}

	// No configured path and no requested path → 400, not a write to "".
	bare := httptest.NewServer(NewServer(NewRegistry(), Config{}).Handler())
	defer bare.Close()
	resp, err = bare.Client().Post(bare.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pathless admin snapshot: status %d, want 400", resp.StatusCode)
	}

	// GET is not a snapshot trigger.
	resp, err = ts.Client().Get(ts.URL + "/admin/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/snapshot: status %d, want 405", resp.StatusCode)
	}
}

// FuzzSnapshotRestore pins the decoder's no-panic contract: any byte string
// either decodes to a fully validated model set or returns an error — never
// a panic, never a partial result. Seeded with a real snapshot and its
// characteristic corruptions.
func FuzzSnapshotRestore(f *testing.F) {
	reg := NewRegistry()
	net := testNet(f, 4, 8, 5, 2)
	e, err := reg.Register("fuzz", net, &core.ModelMeta{Penalty: "l1"})
	if err != nil {
		f.Fatal(err)
	}
	e.Sampled(1)
	e.Sampled(2)
	valid, _, err := reg.EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add([]byte(`{"magic":"tnserve-snapshot","version":1,"checksum_sha256":"00","payload":{"models":[]}}`))
	f.Add([]byte(`{"magic":"wrong"}`))
	f.Add([]byte(`not a snapshot`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		models, info, err := decodeSnapshot(data)
		if err != nil {
			if models != nil {
				t.Fatalf("decode returned models alongside error %v", err)
			}
			return
		}
		if info.Models != len(models) {
			t.Fatalf("info counts %d models, decoder returned %d", info.Models, len(models))
		}
		for _, m := range models {
			if m.name == "" || m.net == nil {
				t.Fatalf("validated model with empty name or nil net: %+v", m)
			}
			if len(m.hotSeeds) > MaxSnapshotSeeds {
				t.Fatalf("validated model with %d hot seeds", len(m.hotSeeds))
			}
		}
	})
}
