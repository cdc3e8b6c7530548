// Package fleet is the sharded front end over a set of bufferd
// replicas: a stateless router (cmd/bufferfleet) that rendezvous-hashes
// each request's content-addressed affinity key over the replica set and
// forwards the versioned solve envelope to the owning shard.
//
// The affinity key is the replicas' own cache key (server.Keyer reuses
// the exact decode + cacheKey path), so hash routing makes the
// per-replica LRU caches compose into a fleet-wide cache with no
// coordination: every repeat of a problem lands on the shard that
// already holds its answer. Everything else in the package exists to
// keep that property from becoming a single point of failure per shard:
//
//   - Health: each replica is probed on /readyz and watched passively on
//     the request path; consecutive connection failures demote it to
//     down, a "draining" readyz moves its keyspace to the next replica
//     in each key's rendezvous order while in-flight work completes.
//   - Hedging: a request stuck past its primary's recent latency
//     quantile launches a second attempt on the key's next replica; the
//     first response wins. This is what bounds the latency cost of a
//     partition that blackholes connections rather than refusing them.
//   - Retry and failover: connection errors retry on the key's next
//     replica with bounded backoff; admission sheds (429/503 with
//     Retry-After) back off the replica's keyspace instead of hammering
//     its queue. Solver responses — including 4xx/5xx — are forwarded
//     verbatim and never retried: a deterministic solver failure would
//     fail identically everywhere, and retrying injected faults would
//     break the chaos harness's exactly-once accounting.
//
// Attempts run under context.WithoutCancel plus a per-attempt timeout:
// once work is handed to a replica it completes there even if the router
// abandons the attempt (a losing hedge), so replica-side admission and
// fault accounting stay exact — an attempt is never half-observed.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffopt/internal/obs"
	"buffopt/internal/server"
)

// Config tunes the router. The zero value (plus a replica list) serves
// on :8081 with sensible bounds; see withDefaults.
type Config struct {
	// Addr is the listen address. Default ":8081".
	Addr string
	// Replicas lists the bufferd instances as host:port. Required, and
	// order-insensitive: the rendezvous hash depends only on the set.
	Replicas []string
	// Decode carries the decode-relevant server config (Limits,
	// DefaultTimeout, MaxTimeout, MaxCands) for the affinity Keyer. It
	// should match the replicas' config; a mismatch only weakens cache
	// affinity, never correctness.
	Decode server.Config
	// ProbeInterval spaces the per-replica /readyz probes. Default 1 s.
	// Each wait is independently jittered ±20% so a mass restart cannot
	// synchronize the fleet's probe bursts against recovering replicas.
	ProbeInterval time.Duration
	// HealthDwell is the minimum time a replica's healthy/suspect state
	// must be held before flipping to the other: flap damping for a
	// replica oscillating ready/unready under intermittent probe
	// failures. Demotion to down (the failure threshold), resurrection
	// from down or draining, and entering draining are never damped.
	// Default 500 ms.
	HealthDwell time.Duration
	// ProbeTimeout bounds one probe round-trip. Default 500 ms.
	ProbeTimeout time.Duration
	// AttemptTimeout bounds one forwarded attempt end to end. It must
	// comfortably exceed the replicas' solve timeout; it exists so a
	// blackholed connection (partition) cannot pin an attempt goroutine
	// forever. Default 30 s.
	AttemptTimeout time.Duration
	// MaxAttempts caps how many distinct replicas one request may try
	// (first attempt + retries/hedges). Default 3, clamped to the
	// replica count.
	MaxAttempts int
	// HedgeMin floors the hedge delay and is the cold-start delay while
	// a replica has too little latency history. Default 20 ms.
	HedgeMin time.Duration
	// FailThreshold is the consecutive-connection-failure count that
	// marks a replica down. Default 3.
	FailThreshold int
	// RetryBackoff is the base delay before the second failover after
	// connection errors (the first failover is immediate; later ones
	// double, capped at 1 s). Default 25 ms.
	RetryBackoff time.Duration
	// RetryAfter is the hint on router-synthesized 503s (no replica
	// reachable). Default 1 s.
	RetryAfter time.Duration
	// MaxBytes caps request bodies. Default 8 MiB, matching bufferd.
	MaxBytes int64
	// DrainTimeout bounds the router's own shutdown drain. Default 15 s.
	DrainTimeout time.Duration
	// Transport overrides the upstream HTTP transport (tests). Nil uses
	// a pooled http.Transport.
	Transport http.RoundTripper
	// TraceSpans bounds the router's span-collector ring. Default 4096.
	TraceSpans int
	// TraceFlightTraces bounds how many anomalous traces the router's
	// flight recorder pins at once. Default 256.
	TraceFlightTraces int
	// TraceLatency is the request latency past which a trace is pinned
	// in the flight recorder. Default 1 s.
	TraceLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8081"
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.HealthDwell <= 0 {
		c.HealthDwell = 500 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxAttempts > len(c.Replicas) {
		c.MaxAttempts = len(c.Replicas)
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 20 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	return c
}

// Router is one fleet front end. Create with New, run with Run (or
// embed Handler under an existing server). A Router holds no per-key
// state — health and latency are per-replica — so any number of routers
// can front the same fleet and agree on every key's placement.
type Router struct {
	cfg      Config
	keyer    *server.Keyer
	replicas []*replica
	names    []string
	client   *http.Client

	attemptWG sync.WaitGroup // in-flight attempt goroutines, incl. abandoned hedges
	draining  atomic.Bool

	// tracer collects the router's own spans; /debug/trace assembles the
	// cross-process view by merging it with the replicas' collectors.
	tracer *obs.Collector

	ready chan struct{}
	addr  atomic.Value // string

	handler http.Handler
}

// New validates cfg and builds a Router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: no replicas configured")
	}
	seen := map[string]bool{}
	for _, r := range cfg.Replicas {
		if r == "" {
			return nil, errors.New("fleet: empty replica address")
		}
		if seen[r] {
			return nil, fmt.Errorf("fleet: replica %s listed twice", r)
		}
		seen[r] = true
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:   cfg,
		keyer: server.NewKeyer(cfg.Decode),
		ready: make(chan struct{}),
		tracer: obs.NewCollector(obs.CollectorConfig{
			RingSpans:        cfg.TraceSpans,
			FlightTraces:     cfg.TraceFlightTraces,
			LatencyThreshold: cfg.TraceLatency,
		}),
	}
	for _, name := range cfg.Replicas {
		rt.replicas = append(rt.replicas, newReplica(name, cfg.HealthDwell))
		rt.names = append(rt.names, name)
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}
	}
	// No client-level timeout: each attempt and probe carries its own
	// context deadline, which is the bound that matters.
	rt.client = &http.Client{Transport: transport}

	mux := http.NewServeMux()
	mux.HandleFunc("/solve", rt.handleSolve)
	mux.HandleFunc("/solve/batch", rt.handleBatch)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/fleet/status", rt.handleStatus)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/metrics/prom", rt.handleMetricsProm)
	mux.HandleFunc("/debug/trace/", rt.handleTrace)
	mux.HandleFunc("/debug/flightrecorder", rt.tracer.ServeFlightRecorder)
	rt.handler = mux
	return rt, nil
}

// Handler returns the router's HTTP handler (tests and embedding).
func (rt *Router) Handler() http.Handler { return rt.handler }

// Tracer returns the router's span collector (tests).
func (rt *Router) Tracer() *obs.Collector { return rt.tracer }

// Addr returns the bound listen address once Run has the listener up.
func (rt *Router) Addr() string {
	a, _ := rt.addr.Load().(string)
	return a
}

// Ready is closed once the listener is accepting connections.
func (rt *Router) Ready() <-chan struct{} { return rt.ready }

// Run listens on cfg.Addr, starts the health-probe loops, and serves
// until ctx is canceled; then it drains its own listener, stops the
// probes, and waits for every in-flight attempt — including abandoned
// hedges, which are bounded by AttemptTimeout — so that when Run
// returns, the attempt ledger (launched == settled) has settled and no
// goroutine still references the upstream client.
func (rt *Router) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return fmt.Errorf("fleet: listen %s: %w", rt.cfg.Addr, err)
	}
	rt.addr.Store(ln.Addr().String())
	close(rt.ready)

	pctx, pcancel := context.WithCancel(context.Background())
	var probeWG sync.WaitGroup
	for _, rep := range rt.replicas {
		probeWG.Add(1)
		go func(rep *replica) {
			defer probeWG.Done()
			rt.probeLoop(pctx, rep)
		}(rep)
	}

	srv := &http.Server{Handler: rt.handler, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var runErr error
	select {
	case err := <-serveErr:
		runErr = fmt.Errorf("fleet: serve: %w", err)
	case <-ctx.Done():
		rt.draining.Store(true)
		obs.Inc("fleet.drain.begun")
		dctx, cancel := context.WithTimeout(context.Background(), rt.cfg.DrainTimeout)
		if err := srv.Shutdown(dctx); err != nil {
			srv.Close()
			<-serveErr
			runErr = fmt.Errorf("fleet: drain timed out after %v: %w", rt.cfg.DrainTimeout, err)
		} else {
			<-serveErr
		}
		cancel()
	}
	pcancel()
	probeWG.Wait()
	rt.attemptWG.Wait()
	if runErr == nil {
		obs.Inc("fleet.drain.completed")
	}
	return runErr
}

// ----------------------------------------------------------------- probes

func (rt *Router) probeLoop(ctx context.Context, rep *replica) {
	// Each wait is drawn fresh from [0.8, 1.2]×ProbeInterval, seeded per
	// replica: after a fleet-wide restart every router's probe loops
	// desynchronize within a few periods instead of hammering recovering
	// replicas in lockstep. Deterministic seeding keeps soak timing
	// reproducible.
	rng := rand.New(rand.NewPCG(server.RendezvousScore(rep.name, "probe-jitter"), 0x9e3779b97f4a7c15))
	rt.probeOnce(ctx, rep)
	t := time.NewTimer(jitterInterval(rt.cfg.ProbeInterval, rng))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeOnce(ctx, rep)
			t.Reset(jitterInterval(rt.cfg.ProbeInterval, rng))
		}
	}
}

// jitterInterval returns base scaled by a uniform factor in [0.8, 1.2].
func jitterInterval(base time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(base) * (0.8 + 0.4*rng.Float64()))
}

// probeOnce asks one replica's /readyz and folds the answer into its
// health: 200 → healthy (the replica's own word outrides everything),
// 503 "draining" → draining, 503 otherwise (overloaded) → alive but
// backed off per its Retry-After, no answer → one more strike toward
// down. A partitioned replica's probe hangs until ProbeTimeout and
// counts as a strike — the blackhole and the dead process converge to
// the same state at the same rate.
func (rt *Router) probeOnce(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.base+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // shutdown, not evidence about the replica
		}
		rep.noteConnError(rt.cfg.FailThreshold)
		obs.Inc("fleet.probe.fail")
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	obs.Inc("fleet.probe.ok")
	switch {
	case resp.StatusCode == http.StatusOK:
		rep.noteReady()
	case resp.StatusCode == http.StatusServiceUnavailable && readyzReason(body) == "draining":
		rep.noteDraining()
	default:
		// Alive but not ready (overloaded queue): honor its Retry-After
		// as keyspace backpressure, same as a request-path shed.
		rep.fails.Store(0)
		rep.noteShed(retryAfterDuration(resp.Header, rt.cfg.RetryAfter), time.Now())
	}
}

func readyzReason(body []byte) string {
	var r struct {
		Reason string `json:"reason"`
	}
	json.Unmarshal(body, &r)
	return r.Reason
}

func retryAfterDuration(h http.Header, fallback time.Duration) time.Duration {
	if s, err := strconv.ParseInt(h.Get("Retry-After"), 10, 64); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return fallback
}

// ------------------------------------------------------------------ rank

// rank returns the replicas this request may try, in preference order:
// the key's rendezvous order, stably partitioned into tiers — routable
// now first, then backed-off or draining (alive, answering, just not
// preferred), then down as the last resort. Within each tier the hash
// order is preserved, so the failover target for a key is deterministic
// given the fleet's health.
func (rt *Router) rank(key string) []*replica {
	idx := server.RendezvousRank(key, rt.names)
	now := time.Now()
	ordered := make([]*replica, 0, len(idx))
	var deferred, last []*replica
	for _, i := range idx {
		rep := rt.replicas[i]
		switch {
		case rep.health() == down:
			last = append(last, rep)
		case rep.health() == draining || rep.inBackoff(now):
			deferred = append(deferred, rep)
		default:
			ordered = append(ordered, rep)
		}
	}
	ordered = append(ordered, deferred...)
	return append(ordered, last...)
}

// ---------------------------------------------------------------- dispatch

// attemptResult is one upstream round-trip's outcome.
type attemptResult struct {
	replica     *replica
	hedged      bool
	err         error // connection-level failure; everything else nil
	status      int
	contentType string
	retryAfter  string
	body        []byte
	shed        bool // admission-control rejection (retryable elsewhere)
	canceled    bool // synthesized: the client gave up first
}

// dispatch forwards one request body to the key's replicas: primary
// first, hedging to the next in rank past the primary's latency
// quantile, failing over on connection errors (with bounded backoff)
// and on admission sheds. The first genuine response — success or
// solver error alike — wins and is forwarded verbatim. Returns nil only
// when every permitted attempt failed at the connection level.
func (rt *Router) dispatch(ctx context.Context, key, path, rawQuery, contentType string, body []byte) *attemptResult {
	// One dispatch span per routed unit (a /solve request, or one shard
	// group of a batch). Hedge attributes live here — not on the request
	// span — so a batch whose groups hedge independently still maps each
	// hedge to exactly one span, matching the fleet.hedge.* counters.
	ctx, span := obs.Span(ctx, "fleet.dispatch")
	defer span.End()
	order := rt.rank(key)
	max := rt.cfg.MaxAttempts
	if max > len(order) {
		max = len(order)
	}

	// Buffered to the launch cap: an abandoned attempt's send never
	// blocks, so its goroutine always runs to completion and settles its
	// ledger entry.
	results := make(chan *attemptResult, max)
	next, outstanding := 0, 0
	launch := func(hedged bool) bool {
		if next >= max {
			return false
		}
		rep := order[next]
		next++
		outstanding++
		rt.attemptWG.Add(1)
		go func() {
			defer rt.attemptWG.Done()
			results <- rt.attempt(ctx, rep, path, rawQuery, contentType, body, hedged)
		}()
		return true
	}
	launch(false)

	hedge := time.NewTimer(rt.hedgeDelay(order[0]))
	defer hedge.Stop()
	hedgeArmed := true

	var relaunch *time.Timer
	defer func() {
		if relaunch != nil {
			relaunch.Stop()
		}
	}()
	relaunchC := func() <-chan time.Time {
		if relaunch == nil {
			return nil
		}
		return relaunch.C
	}

	connFails := 0
	var shedRes *attemptResult
	exhausted := func() *attemptResult {
		if shedRes != nil {
			return shedRes
		}
		return nil
	}

	for {
		select {
		case res := <-results:
			outstanding--
			switch {
			case res.err != nil:
				connFails++
				if next < max && relaunch == nil {
					// First failover is immediate; later ones back off
					// (doubling, capped) so a flapping fleet is not
					// carpet-bombed with retries.
					if d := rt.backoffDelay(connFails); d > 0 {
						relaunch = time.NewTimer(d)
					} else {
						launch(false)
					}
				}
			case res.shed:
				if shedRes == nil {
					shedRes = res
				}
				launch(false)
			default:
				if res.hedged {
					obs.Inc("fleet.hedge.won")
					span.SetAttr("hedge", "won")
				}
				return res
			}
			if outstanding == 0 && relaunch == nil && next >= max {
				return exhausted()
			}
		case <-hedge.C:
			if hedgeArmed {
				hedgeArmed = false
				if launch(true) {
					obs.Inc("fleet.hedge.launched")
					span.SetAttr("hedge", "launched")
				}
			}
		case <-relaunchC():
			relaunch.Stop()
			relaunch = nil
			launch(false)
			if outstanding == 0 && next >= max {
				return exhausted()
			}
		case <-ctx.Done():
			// The client hung up; in-flight attempts still settle on
			// their own timeouts (attemptWG tracks them).
			return &attemptResult{canceled: true}
		}
	}
}

// backoffDelay prices the nth consecutive connection-failure failover:
// 0 for the first (fail fast to the next replica), then RetryBackoff
// doubling per failure, capped at 1 s.
func (rt *Router) backoffDelay(connFails int) time.Duration {
	if connFails <= 1 {
		return 0
	}
	d := rt.cfg.RetryBackoff << (connFails - 2)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// hedgeQuantile is the latency quantile of the primary's recent window
// past which a hedge launches; /fleet/status reports the same quantile
// (p90_ms).
const hedgeQuantile = 0.9

// hedgeDelay prices the hedge timer from the primary's recent latency
// window: its hedgeQuantile latency, floored at HedgeMin (also the
// cold-start value) and capped at half the attempt timeout so a hedge
// still has time to finish.
func (rt *Router) hedgeDelay(primary *replica) time.Duration {
	d := time.Duration(primary.lat.quantile(hedgeQuantile))
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	if cap := rt.cfg.AttemptTimeout / 2; d > cap {
		d = cap
	}
	return d
}

// attempt performs one upstream round-trip. The context is detached
// from the client (WithoutCancel) and bounded by AttemptTimeout: a
// replica that admitted the work completes it even if this attempt
// loses a hedge race, so replica-side accounting stays exact; a replica
// that blackholes the connection (partition) costs at most the timeout.
func (rt *Router) attempt(ctx context.Context, rep *replica, path, rawQuery, contentType string, body []byte, hedged bool) *attemptResult {
	obs.Inc("fleet.attempt.launched")
	defer obs.Inc("fleet.attempt.settled")

	// WithoutCancel keeps the context's values — including the dispatch
	// span — so the attempt span links into the request's trace and the
	// outgoing traceparent header names it as the replica's parent.
	actx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rt.cfg.AttemptTimeout)
	defer cancel()
	actx, span := obs.Span(actx, "fleet.attempt")
	span.SetAttr("replica", rep.name)
	if hedged {
		span.SetAttr("hedged", "true")
	}
	res := rt.attemptOnce(actx, rep, path, rawQuery, contentType, body, hedged)
	switch {
	case res.err != nil:
		span.Fail(res.err)
	default:
		span.SetAttr("status", strconv.Itoa(res.status))
		if res.shed {
			span.SetAttr("shed", "replica")
		}
		span.End()
	}
	return res
}

// attemptOnce is the attempt's round-trip body, run under the attempt
// span's detached context.
func (rt *Router) attemptOnce(actx context.Context, rep *replica, path, rawQuery, contentType string, body []byte, hedged bool) *attemptResult {
	url := rep.base + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return &attemptResult{replica: rep, hedged: hedged, err: err}
	}
	req.Header.Set("Content-Type", contentType)
	if tc := obs.TraceContextFrom(actx); !tc.TraceID.IsZero() {
		req.Header.Set("traceparent", obs.FormatTraceparent(tc))
	}

	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.noteConnError(rt.cfg.FailThreshold)
		obs.Inc("fleet.attempt.connerr")
		return &attemptResult{replica: rep, hedged: hedged, err: err}
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		// The connection died mid-body: same failure class as a dial
		// error, just later.
		rep.noteConnError(rt.cfg.FailThreshold)
		obs.Inc("fleet.attempt.connerr")
		return &attemptResult{replica: rep, hedged: hedged, err: err}
	}

	res := &attemptResult{
		replica:     rep,
		hedged:      hedged,
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        respBody,
	}
	if isShed(resp.StatusCode, respBody) {
		res.shed = true
		rep.noteShed(retryAfterDuration(resp.Header, rt.cfg.RetryAfter), time.Now())
		obs.Inc("fleet.attempt.shed")
		return res
	}
	rep.noteSuccess(elapsed)
	if resp.StatusCode == http.StatusOK {
		obs.Inc("fleet.attempt.ok")
	} else {
		obs.Inc("fleet.attempt.error")
	}
	return res
}

// isShed recognizes a replica's admission-control rejection: 429
// always, 503 only when the body's error class says "shed" (a 503 can
// also be a solver-level verdict, which must be forwarded, not
// retried). Sheds are the one response class that is safe to retry
// elsewhere by construction — the replica did no work.
func isShed(status int, body []byte) bool {
	if status == http.StatusTooManyRequests {
		return true
	}
	if status != http.StatusServiceUnavailable {
		return false
	}
	var e struct {
		Class string `json:"class"`
	}
	json.Unmarshal(body, &e)
	return e.Class == "shed"
}

// ---------------------------------------------------------------- handlers

// handleSolve is POST /solve on the router: key the body, dispatch it
// along the key's replica order, forward the winning response verbatim.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeRouterError(w, http.StatusMethodNotAllowed, "invalid", "POST a net to /solve", 0)
		return
	}
	obs.Inc("fleet.requests")
	// The fleet edge is where a trace is born (or adopted, when the
	// client sent its own traceparent); every replica attempt inherits it.
	ctx, span := rt.tracer.StartTrace(r.Context(), "fleet.request", obs.TraceParentFrom(r.Header))
	defer span.End()
	w.Header().Set("X-Trace-Id", span.TraceID().String())
	body, err := rt.readBody(r)
	if err != nil {
		obs.Inc("fleet.request.outcome.invalid")
		span.SetAttr("outcome", "invalid")
		writeRouterError(w, http.StatusRequestEntityTooLarge, "invalid", err.Error(), 0)
		return
	}
	ct := r.Header.Get("Content-Type")
	key := rt.keyer.SolveKey(ct, r.URL.Query(), body)
	start := time.Now()
	res := rt.dispatch(ctx, key, "/solve", r.URL.RawQuery, ct, body)
	obs.ObserveDurationExemplar("fleet.request.duration", time.Since(start).Nanoseconds(), span.TraceID())
	rt.forward(ctx, w, res, "fleet.request")
}

// forward writes an attemptResult to the client, synthesizing the
// router's own 503 when no replica could be reached, and counts the
// request's terminal outcome under ns exactly once (mirrored as an
// outcome/shed attribute on ctx's span).
func (rt *Router) forward(ctx context.Context, w http.ResponseWriter, res *attemptResult, ns string) {
	switch {
	case res != nil && res.canceled:
		obs.Inc(ns + ".outcome.client_gone")
		obs.Annotate(ctx, "outcome", "client_gone")
		writeRouterError(w, http.StatusServiceUnavailable, "canceled", "client went away before a replica answered", 0)
	case res == nil:
		obs.Inc(ns + ".outcome.unroutable")
		obs.Annotate(ctx, "outcome", "unroutable")
		ra := int64(rt.cfg.RetryAfter / time.Second)
		if ra < 1 {
			ra = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(ra, 10))
		writeRouterError(w, http.StatusServiceUnavailable, "unroutable", "no replica reachable for this request", ra)
	default:
		switch {
		case res.shed:
			obs.Inc(ns + ".outcome.shed")
			obs.Annotate(ctx, "outcome", "shed")
			obs.Annotate(ctx, "shed", "replica")
		case res.status == http.StatusOK:
			obs.Inc(ns + ".outcome.ok")
			obs.Annotate(ctx, "outcome", "ok")
		default:
			obs.Inc(ns + ".outcome.error")
			obs.Annotate(ctx, "outcome", "error")
		}
		if res.contentType != "" {
			w.Header().Set("Content-Type", res.contentType)
		}
		if res.retryAfter != "" {
			w.Header().Set("Retry-After", res.retryAfter)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
		w.WriteHeader(res.status)
		w.Write(res.body)
	}
}

func (rt *Router) readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, rt.cfg.MaxBytes))
	if err != nil {
		return nil, fmt.Errorf("fleet: request body exceeds %d bytes", rt.cfg.MaxBytes)
	}
	return body, nil
}

// handleHealthz is router liveness.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// handleReadyz is router readiness: ready while at least one replica is
// believed routable and the router itself is not draining.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readyz struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	routable := 0
	for _, rep := range rt.replicas {
		if rep.health() != down {
			routable++
		}
	}
	switch {
	case rt.draining.Load():
		w.Header().Set("Retry-After", "1")
		writeRouterJSON(w, http.StatusServiceUnavailable, readyz{Ready: false, Reason: "draining"})
	case routable == 0:
		w.Header().Set("Retry-After", "1")
		writeRouterJSON(w, http.StatusServiceUnavailable, readyz{Ready: false, Reason: "no routable replicas"})
	default:
		writeRouterJSON(w, http.StatusOK, readyz{Ready: true})
	}
}

// ReplicaStatus is one replica's state in the /fleet/status report.
type ReplicaStatus struct {
	Name    string  `json:"name"`
	State   string  `json:"state"`
	Fails   int32   `json:"consecutive_fails,omitempty"`
	Backoff string  `json:"backoff_remaining,omitempty"`
	P90MS   float64 `json:"p90_ms,omitempty"`
}

// handleStatus is GET /fleet/status: the router's live view of its
// replicas, for operators.
func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	var out struct {
		Replicas []ReplicaStatus `json:"replicas"`
	}
	for _, rep := range rt.replicas {
		st := ReplicaStatus{Name: rep.name, State: rep.health().String(), Fails: rep.fails.Load()}
		if until := rep.backoffUntil.Load(); until > now.UnixNano() {
			st.Backoff = time.Duration(until - now.UnixNano()).Round(time.Millisecond).String()
		}
		if q := rep.lat.quantile(hedgeQuantile); q > 0 {
			st.P90MS = float64(q) / 1e6
		}
		out.Replicas = append(out.Replicas, st)
	}
	writeRouterJSON(w, http.StatusOK, out)
}

// handleMetrics dumps the obs registry snapshot, same as bufferd's.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.Default().WriteJSON(w)
}

// handleMetricsProm serves the registry in the OpenMetrics text format
// with trace-ID exemplars, same as bufferd's /metrics/prom.
func (rt *Router) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// handleTrace is GET /debug/trace/<id> on the router: the assembled
// cross-process view of one trace. The router contributes its own spans
// and then asks every replica for the same trace ID, merging the answers
// (deduplicated by span ID, each span tagged with the process it came
// from) into one tree — the replica root spans carry the router attempt
// span as their parent, which is what links the pieces.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Path
	if i := strings.LastIndexByte(raw, '/'); i >= 0 {
		raw = raw[i+1:]
	}
	id, err := obs.ParseTraceID(raw)
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, "invalid", "bad trace id: want 32 lowercase hex digits", 0)
		return
	}
	out := obs.TraceJSON{TraceID: id.String()}
	seen := map[string]bool{}
	add := func(spans []obs.SpanJSON, origin string) {
		for _, sp := range spans {
			if seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			sp.Origin = origin
			out.Spans = append(out.Spans, sp)
		}
	}
	add(obs.SpansJSON(rt.tracer.Trace(id)), "router")
	for _, rep := range rt.replicas {
		add(rt.fetchReplicaTrace(r.Context(), rep, id), rep.name)
	}
	if len(out.Spans) == 0 {
		writeRouterError(w, http.StatusNotFound, "invalid", "trace not retained anywhere in the fleet", 0)
		return
	}
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].StartNS < out.Spans[j].StartNS })
	writeRouterJSON(w, http.StatusOK, out)
}

// fetchReplicaTrace asks one replica for its retained spans of a trace.
// Failures (replica down, trace unknown there) contribute nothing — the
// assembled view is best-effort across whatever is reachable.
func (rt *Router) fetchReplicaTrace(ctx context.Context, rep *replica, id obs.TraceID) []obs.SpanJSON {
	tctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, rep.base+"/debug/trace/"+id.String(), nil)
	if err != nil {
		return nil
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var tj obs.TraceJSON
	if err := json.NewDecoder(io.LimitReader(resp.Body, rt.cfg.MaxBytes)).Decode(&tj); err != nil {
		return nil
	}
	return tj.Spans
}

func writeRouterJSON(w http.ResponseWriter, status int, body any) {
	server.WriteJSON(w, status, body, "fleet")
}

func writeRouterError(w http.ResponseWriter, status int, class, msg string, retryAfterS int64) {
	writeRouterJSON(w, status, server.ErrorResponse{
		Error:       msg,
		Class:       class,
		Status:      status,
		RetryAfterS: retryAfterS,
	})
}
