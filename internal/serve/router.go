// Router: the stateless front-end of the horizontal serving tier. A router
// owns no models and no randomness — it consistent-hashes each classify
// request's (model, seed) shard key onto a fleet of tnserve replicas, so
// every (model, seed) lands on the one replica whose warm sampled-copy cache
// already holds it. Replicas are seeded at boot and change at runtime:
// POST /admin/backends (or a watched backends file) joins and leaves
// replicas while traffic flows, health checks demote and promote them
// through their existing /healthz, and every membership change swaps an
// immutable ring atomically while in-flight proxied requests finish against
// the old owner. Consistent hashing keeps churn cheap — a join or leave
// moves only the departing replica's share of the keyspace, so the rest of
// the fleet keeps its warm caches.
//
// The serving determinism contract is what makes this tier simple: any
// replica answers (model, seed, input) bit-identically, so routing is purely
// a cache-locality and load decision. Failover after a connection error just
// walks the ring to the next replica; the response cannot change.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaHeader is the response header the router stamps on every proxied
// reply with the base URL of the replica that answered. It exists for
// attribution: load generators and churn tests assert shard affinity and
// keyspace movement per request instead of inferring them from stats
// deltas.
const ReplicaHeader = "X-TN-Replica"

// RouterConfig tunes the routing tier. The zero value routes with defaults.
type RouterConfig struct {
	// Vnodes is the number of virtual nodes per replica on the hash ring
	// (default DefaultVnodes).
	Vnodes int
	// HealthInterval is the period between /healthz sweeps (default 1s;
	// negative disables the background checker — probes then only run
	// through CheckNow, which tests and single-shot tools use).
	HealthInterval time.Duration
	// HealthTimeout bounds one /healthz probe (default 500ms).
	HealthTimeout time.Duration
	// FailAfter is how many consecutive probe failures demote a replica
	// (default 2); one success promotes it back.
	FailAfter int
	// Timeout bounds one proxied classify request (default 30s).
	Timeout time.Duration
	// Attempts is how many distinct replicas a request may try when
	// connections fail (default 2). Only transport errors fail over; HTTP
	// statuses — including 429 sheds — propagate from the owning replica.
	Attempts int
	// RetryAfterS is the Retry-After hint (seconds) on 503 responses when no
	// replica is routable (default 1).
	RetryAfterS int
	// BackendsFile, when set, is a watched membership file: one replica URL
	// per line (or comma-separated; # comments). The router polls it every
	// WatchInterval and syncs membership to its contents — joins new URLs,
	// drains and removes missing ones.
	BackendsFile string
	// WatchInterval is the poll period of the backends file (default 1s;
	// negative disables the watcher even when BackendsFile is set).
	WatchInterval time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 2
	}
	if c.RetryAfterS <= 0 {
		c.RetryAfterS = 1
	}
	if c.WatchInterval == 0 {
		c.WatchInterval = time.Second
	}
	return c
}

// replica is one backend in the router's membership table. Mutable state is
// atomic — the forwarding path reads it locklessly.
type replica struct {
	url string

	healthy  atomic.Bool
	draining atomic.Bool
	inflight atomic.Int64

	requests counter // proxied classify requests (any outcome)
	errors   counter // transport failures + 5xx responses
	sheds    counter // 429 responses propagated from this replica

	consecFails int // health-checker goroutine only
}

// routable reports whether new requests may be hashed onto the replica.
func (rep *replica) routable() bool {
	return rep.healthy.Load() && !rep.draining.Load()
}

// Router fronts a dynamic fleet of tnserve replicas. Create with NewRouter,
// expose Handler over HTTP, Close to stop the background loops.
type Router struct {
	cfg    RouterConfig
	client *http.Client

	// reps is the membership table: an immutable slice swapped whole on
	// every join and leave (copy-on-write), so the forwarding, stats, and
	// health paths read it without locks. memberMu serializes the writers —
	// Join, Leave, and SetBackends — and makes leave's drain-then-remove
	// sequence atomic with respect to other membership changes.
	reps     atomic.Pointer[[]*replica]
	memberMu sync.Mutex

	ring atomic.Pointer[ring]
	// ringMu serializes ring recomputation: without it a rebuild computed
	// from stale routability flags could overwrite a newer ring. Lookups
	// never take it — they read the atomic pointer.
	ringMu sync.Mutex
	// healthMu serializes health sweeps (the background loop vs CheckNow
	// from tests/tools), which share per-replica consecFails counters.
	healthMu sync.Mutex

	mux   *http.ServeMux
	start time.Time

	requests  counter // classify requests received
	unroutble counter // 503s: no routable replica for the key

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a router over the given replica base URLs (e.g.
// "http://10.0.0.7:8081"). All replicas start healthy — the first health
// sweep demotes any that are not — so a fleet is routable the moment the
// router comes up rather than after a full probe round. Replicas joined
// later (admin endpoint or backends file) are probed once before going on
// the ring.
func NewRouter(backends []string, cfg RouterConfig) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one backend")
	}
	seen := map[string]bool{}
	rt := &Router{
		cfg:   cfg.withDefaults(),
		start: time.Now(),
		stop:  make(chan struct{}),
	}
	var table []*replica
	for _, raw := range backends {
		u := trimSlash(raw)
		if u == "" || seen[u] {
			return nil, fmt.Errorf("serve: empty or duplicate backend %q", raw)
		}
		seen[u] = true
		rep := &replica{url: u}
		rep.healthy.Store(true)
		table = append(table, rep)
	}
	rt.reps.Store(&table)
	rt.client = &http.Client{
		Timeout: rt.cfg.Timeout,
		Transport: &http.Transport{
			// The router concentrates the whole fleet's traffic through one
			// client; per-host idle connections must cover the concurrency a
			// replica sees or the proxy burns ports on handshakes.
			MaxIdleConns:        4 * 64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	rt.rebuildRing()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/classify", rt.handleClassify)
	rt.mux.HandleFunc("/v1/models", rt.handleModels)
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/debug/stats", rt.handleStats)
	rt.mux.HandleFunc("/admin/backends", rt.handleBackends)
	if rt.cfg.HealthInterval > 0 {
		rt.wg.Add(1)
		go rt.healthLoop()
	}
	if rt.cfg.BackendsFile != "" && rt.cfg.WatchInterval > 0 {
		rt.wg.Add(1)
		go rt.watchLoop()
	}
	return rt, nil
}

// trimSlash normalizes a backend URL for use as a stable ring
// identity: trailing slashes must not make two spellings of one replica hash
// to different vnode positions.
func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Handler returns the HTTP handler serving all router endpoints.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the background loops. In-flight proxied requests are owned by
// their HTTP handlers and finish on their own.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// table returns the current membership snapshot.
func (rt *Router) table() []*replica { return *rt.reps.Load() }

// rebuildRing swaps in a fresh ring over the currently routable replicas.
// Callers mutate replica routability (or membership) first, then rebuild;
// readers see either the old or the new ring, never a partial one.
func (rt *Router) rebuildRing() {
	rt.ringMu.Lock()
	defer rt.ringMu.Unlock()
	var members []*replica
	for _, rep := range rt.table() {
		if rep.routable() {
			members = append(members, rep)
		}
	}
	rt.ring.Store(buildRing(members, rt.cfg.Vnodes))
}

// Drain removes the replica with the given base URL from the ring and waits
// until its in-flight proxied requests finish — the graceful-removal half of
// the replica lifecycle. The replica keeps being health-checked; Restore
// puts it back.
func (rt *Router) Drain(url string) error {
	rep := rt.find(url)
	if rep == nil {
		return fmt.Errorf("serve: unknown replica %q", url)
	}
	rt.drainReplica(rep)
	return nil
}

func (rt *Router) drainReplica(rep *replica) {
	rep.draining.Store(true)
	rt.rebuildRing()
	// New requests can no longer reach the replica; wait out the ones that
	// already hold it. The sleep-poll is fine here: drains are rare
	// operator-speed events, not a hot path.
	for rep.inflight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// find returns the member with the given (normalized) base URL, or nil.
func (rt *Router) find(url string) *replica {
	url = trimSlash(url)
	for _, rep := range rt.table() {
		if rep.url == url {
			return rep
		}
	}
	return nil
}

// Restore returns a drained replica to the ring (subject to health).
func (rt *Router) Restore(url string) error {
	rep := rt.find(url)
	if rep == nil {
		return fmt.Errorf("serve: unknown replica %q", url)
	}
	rep.draining.Store(false)
	rt.rebuildRing()
	return nil
}

// Join adds a replica to the fleet at runtime. The new replica is probed
// once synchronously: a live one goes on the ring immediately (taking over
// only its own share of the keyspace); a dead one joins demoted and the
// health sweep promotes it when it comes up. Joining an existing member is
// an error — Restore un-drains, Join adds.
func (rt *Router) Join(url string) error {
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	return rt.joinLocked(url)
}

func (rt *Router) joinLocked(url string) error {
	u := trimSlash(url)
	if u == "" {
		return fmt.Errorf("serve: empty backend URL")
	}
	if rt.find(u) != nil {
		return fmt.Errorf("serve: replica %q is already a member", u)
	}
	rep := &replica{url: u}
	rep.healthy.Store(rt.probe(u))
	old := rt.table()
	table := make([]*replica, 0, len(old)+1)
	table = append(append(table, old...), rep)
	rt.reps.Store(&table)
	rt.rebuildRing()
	return nil
}

// Leave removes a replica from the fleet at runtime with full drain
// semantics: it comes off the ring atomically, its in-flight requests are
// waited out, and only then does it leave the membership table. Zero
// requests are lost — the same guarantee Drain gives, plus removal.
func (rt *Router) Leave(url string) error {
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	return rt.leaveLocked(url)
}

func (rt *Router) leaveLocked(url string) error {
	u := trimSlash(url)
	rep := rt.find(u)
	if rep == nil {
		return fmt.Errorf("serve: unknown replica %q", u)
	}
	rt.drainReplica(rep)
	old := rt.table()
	table := make([]*replica, 0, len(old)-1)
	for _, r := range old {
		if r != rep {
			table = append(table, r)
		}
	}
	rt.reps.Store(&table)
	rt.rebuildRing()
	return nil
}

// Backends returns the current membership URLs, sorted.
func (rt *Router) Backends() []string {
	tbl := rt.table()
	out := make([]string, 0, len(tbl))
	for _, rep := range tbl {
		out = append(out, rep.url)
	}
	sort.Strings(out)
	return out
}

// SetBackends reconciles membership to exactly urls: joins the ones not yet
// in the fleet, leaves (drain + remove) the ones no longer listed. It
// returns what changed. This is the watched-backends-file primitive, also
// usable directly by orchestration.
func (rt *Router) SetBackends(urls []string) (joined, left []string, err error) {
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	want := map[string]bool{}
	for _, raw := range urls {
		u := trimSlash(raw)
		if u == "" {
			return joined, left, fmt.Errorf("serve: empty backend URL")
		}
		want[u] = true
	}
	for u := range want {
		if rt.find(u) == nil {
			if jerr := rt.joinLocked(u); jerr != nil {
				return joined, left, jerr
			}
			joined = append(joined, u)
		}
	}
	for _, rep := range rt.table() {
		if !want[rep.url] {
			if lerr := rt.leaveLocked(rep.url); lerr != nil {
				return joined, left, lerr
			}
			left = append(left, rep.url)
		}
	}
	sort.Strings(joined)
	sort.Strings(left)
	return joined, left, nil
}

// ReadBackendsFile parses a backends membership file: replica URLs
// separated by newlines or commas, blank lines and #-comments ignored.
func ReadBackendsFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, field := range strings.Split(line, ",") {
			if u := trimSlash(strings.TrimSpace(field)); u != "" {
				urls = append(urls, u)
			}
		}
	}
	return urls, nil
}

// watchLoop polls the backends file and reconciles membership to it. The
// file is the operator's declarative fleet spec: appending a URL joins a
// replica, deleting a line drains and removes one.
func (rt *Router) watchLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.WatchInterval)
	defer ticker.Stop()
	var lastMod time.Time
	var lastSize int64
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		fi, err := os.Stat(rt.cfg.BackendsFile)
		if err != nil {
			continue // absent file: keep current membership
		}
		if fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
			continue
		}
		lastMod, lastSize = fi.ModTime(), fi.Size()
		urls, err := ReadBackendsFile(rt.cfg.BackendsFile)
		if err != nil || len(urls) == 0 {
			// An unreadable or empty spec never empties the fleet: a truncated
			// write mid-update must not drain every replica.
			continue
		}
		joined, left, err := rt.SetBackends(urls)
		if len(joined) > 0 || len(left) > 0 || err != nil {
			log.Printf("serve: backends file %s: joined %v, left %v, err=%v",
				rt.cfg.BackendsFile, joined, left, err)
		}
	}
}

// healthLoop sweeps /healthz on every replica at the configured interval.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.CheckNow()
		}
	}
}

// CheckNow probes every replica's /healthz once and applies promotions and
// demotions to the ring. It is the health checker's body, exported so tests
// and single-shot tools can drive probes deterministically.
func (rt *Router) CheckNow() {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	changed := false
	for _, rep := range rt.table() {
		ok := rt.probe(rep.url)
		if ok {
			rep.consecFails = 0
			if !rep.healthy.Load() {
				rep.healthy.Store(true)
				changed = true
			}
			continue
		}
		rep.consecFails++
		if rep.consecFails >= rt.cfg.FailAfter && rep.healthy.Load() {
			// Demotion is the ungraceful-exit path: the replica vanishes from
			// the ring atomically and requests it was serving either finish
			// (it is slow) or fail over (it is gone).
			rep.healthy.Store(false)
			changed = true
		}
	}
	if changed {
		rt.rebuildRing()
	}
}

func (rt *Router) probe(url string) bool {
	client := &http.Client{Timeout: rt.cfg.HealthTimeout, Transport: rt.client.Transport}
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// shardFields is the minimal slice of a classify payload the router decodes:
// just enough to compute the shard key (shardKeyOf). The body forwards
// verbatim — the replica performs full validation, so router and
// single-process tnserve reject malformed requests identically.
type shardFields struct {
	Model string `json:"model"`
	Seed  uint64 `json:"seed"`
}

func (rt *Router) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	rt.requests.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request body: "+err.Error())
		return
	}
	key, err := shardKeyOf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	ringNow := rt.ring.Load()
	order := ringNow.sequence(ShardKey(key.Model, key.Seed), rt.cfg.Attempts)
	if len(order) == 0 {
		rt.unroutble.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(rt.cfg.RetryAfterS))
		writeError(w, http.StatusServiceUnavailable, "no routable replica")
		return
	}
	var lastErr error
	for _, rep := range order {
		if rt.forward(w, r, rep, body) {
			return
		}
		lastErr = fmt.Errorf("replica %s unreachable", rep.url)
	}
	rt.unroutble.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(rt.cfg.RetryAfterS))
	writeError(w, http.StatusServiceUnavailable, "all candidate replicas unreachable: "+lastErr.Error())
}

// forward proxies one classify body to rep and reports whether a response —
// any HTTP response, including errors the replica chose to send — was
// relayed. false means a transport failure before a response; the caller may
// fail over to the next ring replica, which the determinism contract makes
// response-invisible.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, rep *replica, body []byte) bool {
	rep.requests.Add(1)
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		rep.url+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		rep.errors.Add(1)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.errors.Add(1)
		return false
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rep.sheds.Add(1)
	case resp.StatusCode >= 500:
		rep.errors.Add(1)
	}
	h := w.Header()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	// Attribution: which replica actually answered (after any failover).
	h.Set(ReplicaHeader, rep.url)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// handleModels proxies the model catalog from the first routable replica —
// the fleet serves one homogeneous model set, so any replica's answer is the
// fleet's answer.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	for _, rep := range rt.ring.Load().members() {
		resp, err := rt.client.Get(rep.url + "/v1/models")
		if err != nil {
			rep.errors.Add(1)
			continue
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.Header().Set(ReplicaHeader, rep.url)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "no routable replica")
}

// handleHealth reports router liveness: healthy while at least one replica
// is routable, so a load balancer in front of several routers drains a
// router whose whole fleet is gone.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	if len(rt.ring.Load().slots) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no routable replica")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// BackendsOp is the POST /admin/backends payload: one membership operation.
type BackendsOp struct {
	// Op is one of "join", "leave", "drain", "restore".
	Op  string `json:"op"`
	URL string `json:"url"`
}

// handleBackends is the membership admin endpoint. GET lists the fleet
// (same rows as /debug/stats); POST applies one join/leave/drain/restore.
// Like /debug/stats it is unauthenticated — bind the router to a trusted
// network, not the public internet.
func (rt *Router) handleBackends(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, rt.Stats().Replicas)
	case http.MethodPost:
		var op BackendsOp
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read request body: "+err.Error())
			return
		}
		if err := json.Unmarshal(body, &op); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		switch op.Op {
		case "join":
			err = rt.Join(op.URL)
		case "leave":
			err = rt.Leave(op.URL)
		case "drain":
			err = rt.Drain(op.URL)
		case "restore":
			err = rt.Restore(op.URL)
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown op %q (want join, leave, drain, or restore)", op.Op))
			return
		}
		if err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "unknown replica") {
				status = http.StatusNotFound
			} else if strings.Contains(err.Error(), "already a member") {
				status = http.StatusConflict
			}
			writeError(w, status, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Op       string         `json:"op"`
			URL      string         `json:"url"`
			Replicas []ReplicaStats `json:"replicas"`
		}{op.Op, trimSlash(op.URL), rt.Stats().Replicas})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// ReplicaStats is one backend's row in the router's /debug/stats.
type ReplicaStats struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	OnRing   bool   `json:"on_ring"`
	Inflight int64  `json:"inflight"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Sheds    int64  `json:"sheds"`
}

// RouterStats is the router's /debug/stats payload.
type RouterStats struct {
	UptimeS  float64 `json:"uptime_s"`
	Requests int64   `json:"requests"`
	// Unroutable counts 503s the router itself produced because no replica
	// could take the key (distinct from replica-side sheds and errors).
	Unroutable int64          `json:"unroutable"`
	RingSlots  int            `json:"ring_slots"`
	Replicas   []ReplicaStats `json:"replicas"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() RouterStats {
	ringNow := rt.ring.Load()
	onRing := map[*replica]bool{}
	for _, rep := range ringNow.members() {
		onRing[rep] = true
	}
	out := RouterStats{
		UptimeS:    time.Since(rt.start).Seconds(),
		Requests:   rt.requests.Load(),
		Unroutable: rt.unroutble.Load(),
		RingSlots:  len(ringNow.slots),
	}
	for _, rep := range rt.table() {
		out.Replicas = append(out.Replicas, ReplicaStats{
			URL:      rep.url,
			Healthy:  rep.healthy.Load(),
			Draining: rep.draining.Load(),
			OnRing:   onRing[rep],
			Inflight: rep.inflight.Load(),
			Requests: rep.requests.Load(),
			Errors:   rep.errors.Load(),
			Sheds:    rep.sheds.Load(),
		})
	}
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].URL < out.Replicas[j].URL })
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}
