// Command tnserve serves trained TrueNorth models over HTTP with dynamic
// micro-batching: concurrent classify requests coalesce into engine batches
// while responses stay bit-identical to the offline fast path for a fixed
// per-request seed.
//
// It runs in one of two roles:
//
//   - worker (default): loads models, batches, classifies. Admission control
//     sheds load with 429 + Retry-After once a model's queue passes
//     -shed-depth, before the bounded queue starts blocking.
//   - router (-route): stateless front-end that consistent-hashes each
//     request's (model, seed) onto the -backends replicas, health-checks
//     them via /healthz, and fails connection errors over along the ring —
//     safe because any replica answers (model, seed, input) bit-identically.
//
// Usage:
//
//	tnserve -models models/                    # serve every *.json in a dir
//	tnserve bench1_biased.json other.json      # or individual model files
//	tnserve -demo -addr :8081                  # deterministic built-in model
//	tnserve -addr :9090 -max-batch 128 -workers 8 models/
//	tnserve -route -backends http://h1:8081,http://h2:8081 -addr :8080
//	tnserve -demo -snapshot-file /var/lib/tnserve.snap   # warm restarts
//
// Endpoints (both roles): POST /v1/classify, GET /v1/models, GET /healthz,
// GET /debug/stats. Workers add POST /admin/snapshot (write a registry
// snapshot on demand; with -snapshot-file one is also restored on boot and
// written on drain, so a rolling restart rejoins warm). Routers add
// GET/POST /admin/backends (dynamic membership: join/leave/drain/restore,
// also driven by a watched -backends-file). -pprof additionally mounts
// net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		drainFor = flag.Duration("drain", 10*time.Second, "shutdown grace period")

		// Worker role.
		modelDir   = flag.String("models", "", "directory of *.json models (tntrain envelopes or raw networks)")
		demo       = flag.Bool("demo", false, "register the deterministic built-in demo model")
		maxBatch   = flag.Int("max-batch", 64, "max items coalesced into one flush")
		queueCap   = flag.Int("queue", 0, "pending-item queue bound (0 = 4*max-batch)")
		flushers   = flag.Int("flushers", 2, "concurrent batch executors")
		workers    = flag.Int("workers", 0, "engine goroutines per batch (0 = GOMAXPROCS)")
		maxSPF     = flag.Int("max-spf", 64, "per-request spikes-per-frame cap")
		maxItems   = flag.Int("max-items", 256, "per-request input count cap")
		maxCopies  = flag.Int("max-copies", 64, "per-request ensemble copy budget cap")
		conf       = flag.Float64("conf", 0, "default early-exit confidence for ensemble requests that omit conf (0 = exact)")
		wave       = flag.Int("wave", 0, "ensemble wave size between early-exit checks (0 = engine default)")
		shedDepth  = flag.Int("shed-depth", 0, "per-model admission watermark: shed 429 once this many items are queued (0 = no shedding, block instead)")
		retryAfter = flag.Int("retry-after", 1, "Retry-After seconds on shed responses")
		snapFile   = flag.String("snapshot-file", "", "registry snapshot path: restored on boot if present, written on drain, and the default target of POST /admin/snapshot")

		// Router role.
		route          = flag.Bool("route", false, "run as a stateless router over -backends instead of serving models")
		backends       = flag.String("backends", "", "comma-separated replica base URLs (router role)")
		vnodes         = flag.Int("vnodes", serve.DefaultVnodes, "virtual nodes per replica on the hash ring")
		healthInterval = flag.Duration("health-interval", time.Second, "period between replica /healthz sweeps")
		healthTimeout  = flag.Duration("health-timeout", 500*time.Millisecond, "timeout of one /healthz probe")
		failAfter      = flag.Int("fail-after", 2, "consecutive probe failures that demote a replica")
		attempts       = flag.Int("attempts", 2, "distinct replicas a request may try on connection failure")
		proxyTimeout   = flag.Duration("proxy-timeout", 30*time.Second, "timeout of one proxied classify request")
		backendsFile   = flag.String("backends-file", "", "watched membership file (router role): one replica URL per line; edits join/leave replicas at runtime")
		watchInterval  = flag.Duration("watch-interval", time.Second, "poll period of -backends-file")
	)
	flag.Parse()

	if *route {
		runRouter(routerOpts{
			addr: *addr, pprofOn: *pprofOn,
			backends: *backends,
			cfg: serve.RouterConfig{
				Vnodes:         *vnodes,
				HealthInterval: *healthInterval,
				HealthTimeout:  *healthTimeout,
				FailAfter:      *failAfter,
				Attempts:       *attempts,
				Timeout:        *proxyTimeout,
				BackendsFile:   *backendsFile,
				WatchInterval:  *watchInterval,
			},
		})
		return
	}

	reg := serve.NewRegistry()
	loaded := 0
	if *modelDir != "" {
		n, err := reg.LoadDir(*modelDir)
		if err != nil {
			fatal(err)
		}
		loaded += n
	}
	for _, path := range flag.Args() {
		entry, err := reg.LoadFile(path)
		if err != nil {
			fatal(err)
		}
		log.Printf("loaded model %q: %d classes, %d-dim input, %d cores",
			entry.Name, entry.Plan.Classes(), entry.Plan.InputDim(), entry.Plan.NumCores())
		loaded++
	}
	if *demo {
		entry, err := reg.RegisterDemo()
		if err != nil {
			fatal(err)
		}
		log.Printf("registered built-in demo model %q: %d classes, %d-dim input",
			entry.Name, entry.Plan.Classes(), entry.Plan.InputDim())
		loaded++
	}
	// Restore runs after flag loading: models the flags already registered
	// are skipped (their hot seeds still warm), models only the snapshot
	// knows are registered from it. A bad or missing snapshot is a cold
	// start, never a fatal — the snapshot is a warm-start cache, not a
	// source of truth.
	if *snapFile != "" {
		if _, statErr := os.Stat(*snapFile); statErr == nil {
			info, err := reg.RestoreSnapshotFile(*snapFile)
			if err != nil {
				log.Printf("snapshot restore failed (%v): cold start", err)
			} else {
				log.Printf("restored snapshot %s: %d model(s), %d warm seed(s)", *snapFile, info.Models, info.Seeds)
			}
		}
	}
	if loaded == 0 && len(reg.Names()) == 0 {
		fatal(errors.New("no models: pass -models DIR, model files as arguments, -demo, or a -snapshot-file"))
	}

	srv := serve.NewServer(reg, serve.Config{
		MaxBatch:     *maxBatch,
		QueueCap:     *queueCap,
		FlushWorkers: *flushers,
		Workers:      *workers,
		MaxSPF:       *maxSPF,
		MaxItems:     *maxItems,
		MaxCopies:    *maxCopies,
		Conf:         *conf,
		Wave:         *wave,
		ShedDepth:    *shedDepth,
		RetryAfterS:  *retryAfter,
		SnapshotPath: *snapFile,
	})
	log.Printf("tnserve: %d model(s) %v on %s (max-batch %d, flushers %d, shed-depth %d)",
		len(reg.Names()), reg.Names(), *addr, *maxBatch, *flushers, *shedDepth)
	closeFn := srv.Close
	if *snapFile != "" {
		// Drain writes the snapshot after the batcher has flushed every
		// accepted item, so the hot-seed set reflects the traffic the replica
		// actually served right up to shutdown.
		closeFn = func() {
			srv.Close()
			if info, err := reg.WriteSnapshotFile(*snapFile); err != nil {
				log.Printf("snapshot on drain failed: %v", err)
			} else {
				log.Printf("wrote snapshot %s: %d model(s), %d warm seed(s), %d bytes", *snapFile, info.Models, info.Seeds, info.Bytes)
			}
		}
	}
	serveHTTP(*addr, withPprof(srv.Handler(), *pprofOn), *drainFor, closeFn)
}

type routerOpts struct {
	addr     string
	pprofOn  bool
	backends string
	cfg      serve.RouterConfig
}

func runRouter(o routerOpts) {
	var urls []string
	seen := map[string]bool{}
	add := func(b string) {
		if b = strings.TrimSpace(b); b != "" && !seen[b] {
			seen[b] = true
			urls = append(urls, b)
		}
	}
	for _, b := range strings.Split(o.backends, ",") {
		add(b)
	}
	// The backends file seeds the initial fleet too, so a router can boot
	// from the watched file alone and track it from there.
	if o.cfg.BackendsFile != "" {
		fromFile, err := serve.ReadBackendsFile(o.cfg.BackendsFile)
		if err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
		for _, b := range fromFile {
			add(b)
		}
	}
	rt, err := serve.NewRouter(urls, o.cfg)
	if err != nil {
		fatal(err)
	}
	log.Printf("tnserve router: %d replica(s) %v on %s (vnodes %d, health every %s)",
		len(urls), urls, o.addr, o.cfg.Vnodes, o.cfg.HealthInterval)
	serveHTTP(o.addr, withPprof(rt.Handler(), o.pprofOn), 10*time.Second, rt.Close)
}

// withPprof optionally wraps handler with the net/http/pprof endpoints, so
// both roles can be profiled in production without an offline tnrepro run.
func withPprof(handler http.Handler, on bool) http.Handler {
	if !on {
		return handler
	}
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof enabled at /debug/pprof/")
	return mux
}

// serveHTTP runs the listener with signal-driven graceful shutdown: the HTTP
// server drains its handlers, then closeFn drains the role's own pipeline
// (batcher or health checker).
func serveHTTP(addr string, handler http.Handler, drainFor time.Duration, closeFn func()) {
	hs := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("shutting down: draining for up to %s", drainFor)
		shutCtx, cancel := context.WithTimeout(context.Background(), drainFor)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	// ListenAndServe returns as soon as the listener closes; in-flight
	// handlers may still be writing responses, so wait for Shutdown (which
	// blocks until they return) before tearing anything down.
	<-shutdownDone
	// Handlers done: drain the role's pipeline so every accepted request
	// finished before exit.
	closeFn()
	log.Printf("drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tnserve:", err)
	os.Exit(1)
}
