// Package server is the solver stack's long-running front end: an
// HTTP/JSON daemon (cmd/bufferd) that accepts nets, runs core.Solve on a
// bounded worker pool, and is built to survive hostile load.
//
// The paper's dynamic program has sharply input-dependent cost — the
// Section IV-C candidate-list blowups, the O(bn²) worst cases — so a
// service cannot simply spawn a goroutine per request and hope. The
// defenses, layered from the socket inward:
//
//   - Admission control: at most Workers solves run concurrently; at most
//     QueueDepth more may wait. Requests beyond that are shed immediately
//     with 429 and a Retry-After header, bounding both CPU and the memory
//     held by queued requests.
//   - Per-request deadlines: every request runs under a context deadline
//     (its own timeout_ms, clamped to MaxTimeout) that propagates into
//     guard.Budget, so one pathological net degrades or times out without
//     holding a worker hostage.
//   - Panic isolation: workers run inside guard.Safe; a panicking solve
//     becomes that request's 500, never a process death.
//   - Graceful drain: on SIGTERM (context cancellation) the server stops
//     admitting, flips /readyz to 503, completes in-flight requests up to
//     DrainTimeout, and exits cleanly.
//   - Degradation reporting: responses carry the core.Solve ladder tier
//     and per-tier failure classes, and the same classes feed obs
//     counters exported on /metrics (JSON) and /metrics/prom
//     (OpenMetrics) — shed, degraded, and failed work is all accounted
//     for.
//
// The faultinject layer threads through all of it: when an Injector is
// configured, each admitted request may draw one fault (slow solve,
// spurious cancel, worker panic, malformed result), which is how the soak
// test proves the defenses actually hold.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/faultinject"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/obs"
)

// Config tunes the daemon. The zero value serves on :8080 with sensible
// bounds; see withDefaults for the exact numbers.
type Config struct {
	// Addr is the listen address (host:port). Default ":8080"; use
	// "127.0.0.1:0" in tests to get an ephemeral port via Addr().
	Addr string
	// Workers caps concurrently running solves. Default GOMAXPROCS.
	Workers int
	// QueueDepth caps requests waiting for a worker; arrivals beyond
	// Workers+QueueDepth are shed with 429. Default 64.
	QueueDepth int
	// DefaultTimeout applies to requests that set no timeout_ms. Default
	// 30 s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout, so a client cannot pin a
	// worker indefinitely. Default 2 min.
	MaxTimeout time.Duration
	// MaxCands is the default candidate-list cap handed to guard.Budget
	// (requests may lower but not raise it). 0 means unlimited.
	MaxCands int
	// MaxBytes caps the request body. Default 8 MiB.
	MaxBytes int64
	// Limits bounds the netfmt decode (node and aggressor counts). The
	// zero value uses netfmt's defaults.
	Limits netfmt.Limits
	// DrainTimeout bounds the SIGTERM drain; in-flight requests still
	// running when it expires are abandoned with the connection. Default
	// 15 s.
	DrainTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses. Default 1 s.
	RetryAfter time.Duration
	// MaxBatch caps the nets in one /solve/batch request; larger batches
	// are rejected outright with 413. Default 64. Batch items share the
	// Workers/QueueDepth pool with /solve traffic, so a batch wider than
	// Workers+QueueDepth can have its tail items shed individually.
	MaxBatch int
	// CacheEntries and CacheBytes bound the content-addressed result
	// cache (internal/cache keyed by core.SolveCacheKey): at most
	// CacheEntries resident results, at most CacheBytes of estimated
	// footprint (each 0 = that bound unlimited). When both are zero the
	// cache is disabled and every request runs a fresh solve. The cache
	// reports under "server.cache.*" on /metrics; concurrent identical
	// requests coalesce onto one solve.
	CacheEntries int
	CacheBytes   int64
	// SnapshotPath, when non-empty (and the cache is enabled), makes the
	// server durable across restarts: on construction it warm-starts the
	// cache from the snapshot file at this path (a corrupt or
	// version-skewed file is rejected whole — counted, logged, cold
	// start), and Run saves the cache back periodically and on drain.
	// SaveSnapshot saves on demand for embedders that bypass Run.
	SnapshotPath string
	// SnapshotInterval spaces Run's periodic snapshot saves. Default 30 s.
	SnapshotInterval time.Duration
	// Self and Peers enable peer read-through fill: on a local cache
	// miss, the server consults the key's next-preferred sibling (by the
	// same rendezvous order the fleet router uses over the combined
	// Self+Peers name set) with a GET /cache/peek/<key> before paying for
	// a solve. Self must be this replica's own name as it appears in the
	// router's replica list; peer fill is disabled when Self is empty,
	// Peers is empty, or the cache is off.
	Self  string
	Peers []string
	// PeerTimeout bounds one peer peek round-trip; a peek that cannot
	// beat it is abandoned and the local solve proceeds. Default 150 ms.
	PeerTimeout time.Duration
	// SessionTTL bounds how long an idle /solve/delta session survives;
	// each use refreshes the clock. Expired sessions answer 404 (the
	// client re-creates), never a silent full solve. Default 5 min.
	SessionTTL time.Duration
	// MaxSessions caps live delta sessions per replica; creating beyond
	// it evicts the least-recently-used session. Default 64.
	MaxSessions int
	// SessionMemoEntries and SessionMemoBytes bound each session's
	// subtree memo (the incremental re-solve state). An evicted memo
	// entry is recomputed on next use — slower, never wrong. Defaults
	// 8192 entries, 16 MiB.
	SessionMemoEntries int
	SessionMemoBytes   int64
	// Injector, when non-nil, assigns chaos faults to admitted requests
	// (the soak harness; see internal/faultinject). Nil in production.
	// Cached and coalesced requests draw no fault: a plan is assigned
	// only when a solve actually runs.
	Injector *faultinject.Injector
	// TraceSpans bounds the span collector's recent-span ring (the window
	// /debug/trace/<id> can see for ordinary traces). Default 4096.
	TraceSpans int
	// TraceFlightTraces bounds how many anomalous traces the flight
	// recorder pins at once. Default 256.
	TraceFlightTraces int
	// TraceLatency is the request latency past which a trace counts as
	// anomalous and is pinned in the flight recorder. Default 1 s.
	TraceLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 150 * time.Millisecond
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionMemoEntries <= 0 {
		c.SessionMemoEntries = 8192
	}
	if c.SessionMemoBytes <= 0 {
		c.SessionMemoBytes = 16 << 20
	}
	return c
}

// Server is one daemon instance. Create with New, run with Run.
type Server struct {
	cfg Config

	slots    chan struct{} // worker semaphore, capacity cfg.Workers
	queued   atomic.Int64  // requests waiting for a slot
	inflight atomic.Int64  // requests holding a slot

	draining  atomic.Bool
	drainCh   chan struct{} // closed when drain begins
	drainOnce sync.Once

	ready chan struct{} // closed once the listener is up
	addr  atomic.Value  // string: the bound address

	// cache memoizes whole-net results; nil when disabled by config.
	cache *core.SolveCache

	// sessions holds the incremental (ECO) /solve/delta sessions.
	sessions *sessionStore

	// peerNames is the rendezvous name set for peer read-through fill
	// (Self first, then deduplicated Peers); nil when peer fill is off.
	peerNames  []string
	peerClient *http.Client

	// tracer collects this server's spans: per-Server (not process-global)
	// so an in-process lab fleet sees genuinely separate "processes".
	tracer *obs.Collector

	handler http.Handler
}

// Errors the admission path reports; the handler maps them to 429/503.
var (
	errOverloaded = errors.New("server: queue full")
	errDraining   = errors.New("server: draining")
)

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		drainCh: make(chan struct{}),
		ready:   make(chan struct{}),
	}
	if cfg.CacheEntries > 0 || cfg.CacheBytes > 0 {
		s.cache = core.NewSolveCache(cfg.CacheEntries, cfg.CacheBytes, "server")
	}
	// Warm-start before the handler exists: embedders that serve
	// Handler() under their own http.Server (the fleet lab) never call
	// Run, so the load cannot live there.
	s.loadSnapshot()
	s.initPeers()
	s.tracer = obs.NewCollector(obs.CollectorConfig{
		RingSpans:        cfg.TraceSpans,
		FlightTraces:     cfg.TraceFlightTraces,
		LatencyThreshold: cfg.TraceLatency,
	})
	s.sessions = newSessionStore(cfg.SessionTTL, cfg.MaxSessions)
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/solve/batch", s.handleBatch)
	mux.HandleFunc("/solve/delta", s.handleDelta)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/cache/peek/", s.handleCachePeek)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/prom", handlePromMetrics)
	mux.HandleFunc("/debug/trace/", s.tracer.ServeTrace)
	mux.HandleFunc("/debug/flightrecorder", s.tracer.ServeFlightRecorder)
	s.handler = mux
	return s
}

// Tracer returns the server's span collector (tests and embedders — the
// fleet lab reads replica books and traces through it).
func (s *Server) Tracer() *obs.Collector { return s.tracer }

// handlePromMetrics serves the default registry in the OpenMetrics text
// format with trace-ID exemplars on the latency histograms, alongside the
// JSON snapshot at /metrics.
func handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Addr returns the bound listen address once Run has the listener up
// (useful with Addr "host:0"), or "" before that.
func (s *Server) Addr() string {
	a, _ := s.addr.Load().(string)
	return a
}

// Ready is closed once the listener is accepting connections.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight returns the number of requests currently holding a worker
// slot. The fleet chaos harness samples it at the moment it kills a
// replica, because that in-flight count is exactly the accounting
// tolerance a kill introduces (the requests whose contexts die with
// their connections).
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Run listens on cfg.Addr and serves until ctx is canceled (the SIGTERM
// path), then drains: admission stops, /readyz flips to 503, queued
// requests are shed, and in-flight requests get up to DrainTimeout to
// finish. Returns nil on a clean drain; a non-nil error means the
// listener failed or the drain deadline forced connections closed.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.addr.Store(ln.Addr().String())
	close(s.ready)

	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Periodic snapshot saves, so a crash between drains loses at most
	// one interval of cache warmth; the final save below runs after the
	// drain, when no fill can race the file.
	snapDone := make(chan struct{})
	if s.cache != nil && s.cfg.SnapshotPath != "" {
		go func() {
			defer close(snapDone)
			t := time.NewTicker(s.cfg.SnapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s.SaveSnapshot()
				}
			}
		}()
	} else {
		close(snapDone)
	}

	select {
	case err := <-serveErr:
		// The listener died on its own; nothing left to drain.
		return fmt.Errorf("server: serve: %w", err)
	case <-ctx.Done():
	}

	s.beginDrain()
	obs.Inc("server.drain.begun")
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		// Drain deadline hit: force-close what remains so the process
		// can still exit rather than hang on a stuck connection.
		srv.Close()
		<-serveErr
		obs.Inc("server.drain.forced")
		<-snapDone
		s.SaveSnapshot()
		return fmt.Errorf("server: drain timed out after %v: %w", s.cfg.DrainTimeout, err)
	}
	<-serveErr // http.ErrServerClosed
	obs.Inc("server.drain.completed")
	<-snapDone
	if err := s.SaveSnapshot(); err != nil {
		return fmt.Errorf("server: drain snapshot: %w", err)
	}
	return nil
}

// BeginDrain flips the server to draining without going through Run's
// SIGTERM path, for embedders that serve Handler() under their own
// http.Server (the fleet lab drains one replica this way to exercise the
// router's keyspace failover). Idempotent; there is no un-drain.
func (s *Server) BeginDrain() { s.beginDrain() }

// beginDrain flips the server to draining exactly once: new arrivals and
// queued waiters are shed from here on, /readyz reports 503.
func (s *Server) beginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// admit implements admission control: grab a free worker slot if one is
// available right now; otherwise join the bounded queue and wait for a
// slot, the client giving up, or drain. The returned release function
// must be called exactly once when the work is done.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	return s.admitNS(ctx, "server")
}

// admitNS is admit with a counter namespace: /solve requests shed under
// "server.shed.*", batch items under "server.batch.shed.*", so the soak
// invariants (client-observed 429s == shed counter, outcomes + shed ==
// requests) hold exactly per traffic class. The inflight/queue gauges
// stay unprefixed — they measure the one shared pool both classes drain.
func (s *Server) admitNS(ctx context.Context, ns string) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	acquired := func() func() {
		n := s.inflight.Add(1)
		obs.Set("server.inflight", n)
		obs.SetMax("server.inflight.peak", n)
		return func() {
			obs.Set("server.inflight", s.inflight.Add(-1))
			<-s.slots
		}
	}
	// Fast path: a worker is free, skip the queue entirely.
	select {
	case s.slots <- struct{}{}:
		return acquired(), nil
	default:
	}
	// Queue path: bounded by QueueDepth; beyond it, shed now. The
	// counter is the queue's memory bound — no request body has been
	// read yet at admission time, so a queued request costs a goroutine
	// and a connection, not a parsed net.
	q := s.queued.Add(1)
	if q > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		obs.Inc(ns + ".shed.queue_full")
		obs.Annotate(ctx, "shed", "queue_full")
		return nil, errOverloaded
	}
	// Peak recorded only for admitted waiters: the counter briefly
	// overshoots QueueDepth while an overflow arrival is being turned
	// away, but nothing beyond the depth ever actually waits.
	obs.SetMax("server.queue.peak", q)
	defer func() {
		obs.Set("server.queue.depth", s.queued.Add(-1))
	}()
	select {
	case s.slots <- struct{}{}:
		return acquired(), nil
	case <-ctx.Done():
		obs.Inc(ns + ".shed.client_gone")
		obs.Annotate(ctx, "shed", "client_gone")
		return nil, fmt.Errorf("%w: %w", guard.ErrCanceled, ctx.Err())
	case <-s.drainCh:
		obs.Inc(ns + ".shed.draining")
		obs.Annotate(ctx, "shed", "draining")
		return nil, errDraining
	}
}

// saturated reports whether the wait queue is full — the overload signal
// /readyz exposes so load balancers steer traffic away before requests
// start bouncing off 429s.
func (s *Server) saturated() bool {
	return s.queued.Load() >= int64(s.cfg.QueueDepth)
}
