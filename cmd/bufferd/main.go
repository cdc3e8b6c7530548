// Command bufferd serves the buffer-insertion solver as a long-running
// HTTP/JSON daemon: POST a net to /solve (or a list of nets to
// /solve/batch) and get back the buffered solution, the degradation tier
// that produced it, and why any stronger tier failed.
//
// Usage:
//
//	bufferd [-addr :8080] [-workers N] [-queue N] [-max-batch N]
//	        [-timeout 30s] [-max-timeout 2m] [-max-cands N]
//	        [-max-bytes 8388608] [-max-nodes N]
//	        [-cache-entries 4096] [-cache-bytes 268435456]
//	        [-session-ttl 5m] [-max-sessions 64] [-session-memo-bytes N]
//	        [-snapshot cache.snap] [-snapshot-interval 30s]
//	        [-self host:port] [-peers host:port,...] [-peer-timeout 150ms]
//	        [-trace-spans 4096] [-trace-latency 1s]
//	        [-drain-timeout 15s] [-retry-after 1s]
//	        [-faults slow=0.1,cancel=0.05] [-fault-seed 1] [-fault-delay 25ms]
//	        [-metrics out.json] [-v] [-pprof addr]
//
// Endpoints:
//
//	POST /solve        application/json v2 envelope {"v": 2, "net":
//	                   "...netfmt...", "options": {"timeout_ms": ...},
//	                   "problem": {...}} ("v" may be omitted), or raw
//	                   netfmt text (?timeout_ms=, ?max_cands=)
//	POST /solve/batch  {"nets": [{...}, ...]} — up to -max-batch nets fanned
//	                   across the worker pool; per-net results and errors
//	                   (partial failures stay 200)
//	POST /solve/delta  incremental (ECO) re-solves over a v2 envelope:
//	                   {"v": 2, "net": ...} creates a session,
//	                   {"v": 2, "session": {"id": ...}, "edits": [...]}
//	                   edits and re-solves it, reusing every memoized
//	                   subtree the edits did not touch — bit-identical to
//	                   a from-scratch solve. Sessions idle out after
//	                   -session-ttl, at most -max-sessions live (LRU),
//	                   each memo bounded by -session-memo-bytes.
//	GET  /healthz      liveness: 200 while the process serves
//	GET  /readyz       readiness: 503 while draining or overloaded
//	GET  /metrics      telemetry snapshot as JSON
//	GET  /metrics/prom the same telemetry in the OpenMetrics text format,
//	                   with trace-ID exemplars on the latency histograms
//	GET  /debug/trace/<id>      retained spans of one trace (every response
//	                   carries its trace ID in X-Trace-Id)
//	GET  /debug/flightrecorder  complete traces of recent anomalous
//	                   requests: sheds, injected faults, slow solves
//
// At most -workers solves run concurrently and at most -queue more wait;
// beyond that, requests — and individual batch items — are shed with 429
// and a Retry-After header. SIGTERM (or Ctrl-C) drains: readiness flips,
// in-flight requests finish (bounded by -drain-timeout), and the process
// exits 0.
//
// Results are memoized in a content-addressed LRU cache bounded by
// -cache-entries and -cache-bytes (set both to 0 to disable). Repeated
// requests for the same net and knobs are answered from the cache
// (responses carry "cached": true) and concurrent identical requests
// coalesce onto one solve; "server.cache.*" counters on /metrics track
// lookups, hits, misses, coalesced waits, stores, and evictions.
//
// With -snapshot set, the cache survives restarts: the LRU is written to
// the file periodically (-snapshot-interval) and on drain as a
// checksummed, atomically-replaced snapshot, and the next boot warm-starts
// from it. A corrupt, torn, or version-skewed file is rejected whole —
// logged, counted, cold start — never a crash. With -self and -peers set,
// a local cache miss first peeks the key's sibling replica
// (GET /cache/peek/<key>, bounded by -peer-timeout) before solving; see
// DESIGN.md §15.
//
// The -faults family enables the deterministic fault injector (see
// internal/faultinject) for soak and chaos testing; leave it unset in
// production.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"buffopt/internal/faultinject"
	"buffopt/internal/guard"
	"buffopt/internal/obs"
	"buffopt/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main, factored for tests: parse flags, start telemetry, serve
// until the signal context cancels, map the outcome to an exit code.
func run(args []string, stderr *os.File) int {
	fs := flag.NewFlagSet("bufferd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	var cfg server.Config
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "max requests waiting for a worker before shedding")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 64, "max nets in one /solve/batch request")
	fs.DurationVar(&cfg.DefaultTimeout, "timeout", 30*time.Second, "per-request deadline when the client sets none")
	fs.DurationVar(&cfg.MaxTimeout, "max-timeout", 2*time.Minute, "hard cap on any per-request deadline")
	fs.IntVar(&cfg.MaxCands, "max-cands", 0, "cap on DP candidate-list size (0 disables)")
	fs.Int64Var(&cfg.MaxBytes, "max-bytes", 8<<20, "cap on request body size, bytes")
	fs.IntVar(&cfg.Limits.MaxNodes, "max-nodes", 0, "cap on nodes per net (0 = netfmt default)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
	fs.DurationVar(&cfg.RetryAfter, "retry-after", time.Second, "Retry-After hint on shed responses")
	fs.IntVar(&cfg.CacheEntries, "cache-entries", 4096, "max results resident in the solve cache (0 = unlimited when -cache-bytes set; both 0 disables)")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 256<<20, "max estimated bytes resident in the solve cache (0 = unlimited when -cache-entries set; both 0 disables)")
	fs.DurationVar(&cfg.SessionTTL, "session-ttl", 0, "idle expiry for /solve/delta sessions (0 = default 5m)")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 0, "max live /solve/delta sessions; beyond that the least recently used is evicted (0 = default 64)")
	fs.Int64Var(&cfg.SessionMemoBytes, "session-memo-bytes", 0, "per-session subtree-memo byte budget; eviction recomputes, never changes answers (0 = default 16 MiB)")
	fs.IntVar(&cfg.TraceSpans, "trace-spans", 0, "span-collector ring size: recent spans visible at /debug/trace (0 = default 4096)")
	fs.DurationVar(&cfg.TraceLatency, "trace-latency", 0, "latency past which a request's trace is pinned in the flight recorder (0 = default 1s)")
	fs.StringVar(&cfg.SnapshotPath, "snapshot", "", "cache snapshot file: warm-start from it on boot, rewrite it periodically and on drain (empty disables)")
	fs.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", 0, "how often to rewrite the cache snapshot while serving (0 = default 30s)")
	fs.StringVar(&cfg.Self, "self", "", "this replica's host:port as the fleet knows it (rendezvous identity; required for -peers)")
	var peers peerList
	fs.Var(&peers, "peers", "comma-separated sibling host:ports to consult on cache misses (peer read-through fill)")
	fs.DurationVar(&cfg.PeerTimeout, "peer-timeout", 0, "budget for one peer cache peek on a local miss (0 = default 150ms)")

	faults := fs.String("faults", "", "fault-injection rates, e.g. slow=0.1,cancel=0.05,panic=0.01,malformed=0.05 (chaos testing only)")
	faultSeed := fs.Int64("fault-seed", 1, "fault injector PRNG seed")
	faultDelay := fs.Duration("fault-delay", 25*time.Millisecond, "duration of an injected slow solve")

	verbose := fs.Bool("v", false, "trace solver spans to stderr")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address")
	if err := fs.Parse(args); err != nil {
		return guard.ExitUsage
	}

	if *faults != "" {
		rates, err := faultinject.ParseRates(*faults)
		if err != nil {
			fmt.Fprintln(stderr, "bufferd:", err)
			return guard.ExitUsage
		}
		inj, err := faultinject.New(faultinject.Config{
			Seed:      *faultSeed,
			Rates:     rates,
			SlowDelay: *faultDelay,
		})
		if err != nil {
			fmt.Fprintln(stderr, "bufferd:", err)
			return guard.ExitUsage
		}
		cfg.Injector = inj
		fmt.Fprintf(stderr, "bufferd: FAULT INJECTION ACTIVE: %s (seed %d)\n", *faults, *faultSeed)
	}
	if cfg.Limits.MaxNodes < 0 || cfg.MaxBytes < 0 || cfg.CacheEntries < 0 || cfg.CacheBytes < 0 {
		fmt.Fprintln(stderr, "bufferd: limits must be non-negative")
		return guard.ExitUsage
	}
	cfg.Peers = peers
	if len(cfg.Peers) > 0 && cfg.Self == "" {
		fmt.Fprintln(stderr, "bufferd: -peers requires -self (this replica's name in the rendezvous ring)")
		return guard.ExitUsage
	}

	stopObs, err := obs.Start(obs.StartOptions{
		Verbose:     *verbose,
		MetricsPath: *metrics,
		PprofAddr:   *pprofAddr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bufferd:", err)
		return guard.ExitFailure
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := server.New(cfg)
	go func() {
		<-s.Ready()
		fmt.Fprintf(stderr, "bufferd: serving on %s (workers %d, queue %d)\n",
			s.Addr(), cfg.Workers, cfg.QueueDepth)
	}()
	runErr := s.Run(ctx)
	if err := stopObs(); err != nil {
		fmt.Fprintln(stderr, "bufferd: telemetry:", err)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "bufferd:", runErr)
		return guard.ExitCode(runErr)
	}
	fmt.Fprintln(stderr, "bufferd: drained cleanly")
	return guard.ExitOK
}

// peerList parses -peers: comma-separated host:ports, empties dropped.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(s string) error {
	*p = nil
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*p = append(*p, part)
		}
	}
	return nil
}
