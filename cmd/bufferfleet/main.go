// Command bufferfleet fronts a fleet of bufferd replicas with a
// stateless, cache-affine router: each request's net is hashed to a
// content-addressed affinity key and rendezvous-hashed over the replica
// set, so repeated solves of the same problem land on the same replica's
// cache while distinct problems spread evenly. Replica health is tracked
// by /readyz probes plus passive signals; connection failures fail over
// down the key's preference order with bounded backoff, and slow
// attempts are hedged to the next replica past the primary's p90 latency.
//
// Usage:
//
//	bufferfleet -replicas host1:8080,host2:8080,host3:8080
//	            [-addr :8081] [-probe-interval 1s] [-probe-timeout 500ms]
//	            [-health-dwell 500ms]
//	            [-attempt-timeout 30s] [-max-attempts 3]
//	            [-hedge-min 20ms]
//	            [-fail-threshold 3] [-retry-backoff 25ms]
//	            [-retry-after 1s] [-max-bytes 8388608]
//	            [-drain-timeout 15s]
//	            [-trace-spans 4096] [-trace-latency 1s]
//	            [-timeout 30s] [-max-timeout 2m] [-max-cands N] [-max-nodes N]
//	            [-metrics out.json] [-v] [-pprof addr]
//
// Endpoints:
//
//	POST /solve         routed to the net's replica; retried/hedged on
//	                    connection failure, never on a solver verdict
//	POST /solve/batch   split per net, sub-batches routed per shard, the
//	                    merged response preserves client order
//	GET  /healthz       router liveness
//	GET  /readyz        503 once no replica is routable (or draining)
//	GET  /fleet/status  per-replica health, failures, backoff, p90
//	GET  /metrics       router telemetry snapshot as JSON
//	GET  /metrics/prom  the same telemetry in the OpenMetrics text format,
//	                    with trace-ID exemplars on the latency histograms
//	GET  /debug/trace/<id>      the trace's router spans merged with each
//	                    replica's retained spans: the cross-process view
//	GET  /debug/flightrecorder  complete router-side traces of recent
//	                    anomalous requests (sheds, hedges, slow solves)
//
// The -timeout/-max-timeout/-max-cands/-max-nodes flags mirror the
// replicas' decode knobs so the router derives the same cache key the
// replicas do; a mismatch weakens cache affinity but never correctness.
//
// SIGTERM (or Ctrl-C) drains: in-flight requests and their upstream
// attempts finish (bounded by -drain-timeout), then the process exits 0.
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

	"buffopt/internal/fleet"
	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main, factored for tests: parse flags, start telemetry, route
// until the signal context cancels, map the outcome to an exit code.
func run(args []string, stderr *os.File) int {
	fs := flag.NewFlagSet("bufferfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)

	var cfg fleet.Config
	replicas := fs.String("replicas", "", "comma-separated bufferd replicas as host:port (required)")
	fs.StringVar(&cfg.Addr, "addr", ":8081", "listen address")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", time.Second, "spacing of per-replica /readyz probes")
	fs.DurationVar(&cfg.ProbeTimeout, "probe-timeout", 500*time.Millisecond, "deadline for one probe round-trip")
	fs.DurationVar(&cfg.HealthDwell, "health-dwell", 0, "minimum hold time before a replica flips healthy<->suspect (flap damping; 0 = default 500ms)")
	fs.DurationVar(&cfg.AttemptTimeout, "attempt-timeout", 30*time.Second, "deadline for one forwarded attempt (must exceed the replicas' solve timeout)")
	fs.IntVar(&cfg.MaxAttempts, "max-attempts", 3, "max distinct replicas tried per request (clamped to the fleet size)")
	fs.DurationVar(&cfg.HedgeMin, "hedge-min", 20*time.Millisecond, "floor (and cold-start value) of the hedge delay")
	fs.IntVar(&cfg.FailThreshold, "fail-threshold", 3, "consecutive connection failures that mark a replica down")
	fs.DurationVar(&cfg.RetryBackoff, "retry-backoff", 25*time.Millisecond, "base delay before the second failover (doubles, capped at 1s)")
	fs.DurationVar(&cfg.RetryAfter, "retry-after", time.Second, "Retry-After hint when no replica is reachable")
	fs.Int64Var(&cfg.MaxBytes, "max-bytes", 8<<20, "cap on request body size, bytes")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
	fs.IntVar(&cfg.TraceSpans, "trace-spans", 0, "span-collector ring size: recent spans visible at /debug/trace (0 = default 4096)")
	fs.DurationVar(&cfg.TraceLatency, "trace-latency", 0, "latency past which a request's trace is pinned in the flight recorder (0 = default 1s)")

	// Decode knobs, mirroring the replicas' so affinity keys agree.
	fs.DurationVar(&cfg.Decode.DefaultTimeout, "timeout", 30*time.Second, "replicas' default per-request deadline (affinity-key input)")
	fs.DurationVar(&cfg.Decode.MaxTimeout, "max-timeout", 2*time.Minute, "replicas' cap on per-request deadlines (affinity-key input)")
	fs.IntVar(&cfg.Decode.MaxCands, "max-cands", 0, "replicas' DP candidate cap (affinity-key input)")
	fs.IntVar(&cfg.Decode.Limits.MaxNodes, "max-nodes", 0, "replicas' cap on nodes per net (affinity-key input)")

	verbose := fs.Bool("v", false, "trace router spans to stderr")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address")
	if err := fs.Parse(args); err != nil {
		return guard.ExitUsage
	}

	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			cfg.Replicas = append(cfg.Replicas, r)
		}
	}
	rt, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bufferfleet:", err)
		return guard.ExitUsage
	}

	stopObs, err := obs.Start(obs.StartOptions{
		Verbose:     *verbose,
		MetricsPath: *metrics,
		PprofAddr:   *pprofAddr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bufferfleet:", err)
		return guard.ExitFailure
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go func() {
		<-rt.Ready()
		fmt.Fprintf(stderr, "bufferfleet: routing over %d replicas on %s\n",
			len(cfg.Replicas), rt.Addr())
	}()
	runErr := rt.Run(ctx)
	if err := stopObs(); err != nil {
		fmt.Fprintln(stderr, "bufferfleet: telemetry:", err)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "bufferfleet:", runErr)
		return guard.ExitCode(runErr)
	}
	fmt.Fprintln(stderr, "bufferfleet: drained cleanly")
	return guard.ExitOK
}
