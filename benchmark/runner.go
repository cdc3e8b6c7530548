package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffopt/internal/obs"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	// smoke shrinks every input and the timed phase so a whole run takes
	// well under a second (the tests use it).
	smoke bool
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, so one slow repetition does not move it.
const setupRepeats = 3

// timed is how long the measured closed loop runs: the whole -seconds
// untraced; a third of it traced, leaving time for the replay and the
// probes.
func (c config) timed() time.Duration {
	switch {
	case c.smoke:
		return 300 * time.Millisecond
	case c.traced:
		return time.Duration(c.seconds) * time.Second / 3
	}
	return time.Duration(c.seconds) * time.Second
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the record of one run, written by -out and read by compare.
type Result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	Smoke      bool              `json:"smoke,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	ErrorShare float64           `json:"error_share"`
	Digest     string            `json:"digest"`
	Ops        int               `json:"ops"`
	SetupRuns  []float64         `json:"setup_runs_s,omitempty"`
	Metrics    map[string]Metric `json:"metrics"`
	// Speed is the machine's speed relative to the reference kernel's
	// during the run; every reported time and rate is stated at
	// reference speed, and Measured keeps the wall-clock values.
	Speed    float64            `json:"speed"`
	Measured map[string]float64 `json:"measured"`
	// PeakRSSMB is the largest resident set sampled across the loop:
	// informational, since on a small heap it swings with the collector's
	// timing (see rss_mb).
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// Unresolved lists the tail-percentile metrics that have fewer than
	// minBeyond samples beyond them in this run: reported, because every
	// run reports every metric, but not to be read as a tail.
	Unresolved []string `json:"unresolved,omitempty"`
	// Sources says where each per-layer metric came from: "op" or
	// "layer" (the workload's own ops and the calls inside them),
	// "replay" (the in-process replay of a replica's pipeline), "probe"
	// (a sample of the workload's inputs, for a layer its ops never
	// call) or "counter".
	Sources map[string]string `json:"sources,omitempty"`
}

// runner carries one workload run.
type runner struct {
	cfg config
	ctx context.Context
	tr  *tracer // nil unless traced

	setupRuns []float64
	digest    digest

	// The measured closed loop.
	latMS     []float64
	doneAt    []time.Duration // when each op finished, from the loop's start
	elapsed   time.Duration
	ops       int
	failed    int
	rssMB     float64   // median resident set across the loop, MiB
	peakRSSMB float64   // largest resident set sampled across the loop, MiB
	refRate   []float64 // the reference kernel's rates across the loop

	// Warm-up and audit failures outside the loop, and how many answers
	// the warm-up checked.
	extraAttempted, extraFailed int
	failLog                     int

	phase  phaseStats // traced: the program's counters across the loop
	nodes  int        // traced: worked-tree nodes summed over ops
	nodeOp int        // traced: ops contributing to nodes
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, ctx: context.Background()}
	if cfg.traced {
		r.tr = newTracer()
	}
	return r
}

// logFailure reports a failed operation on stderr (the first few, to
// keep it readable).
func (r *runner) logFailure(what string, err error) {
	if r.failLog < 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s: %v\n", r.cfg.workload, what, err)
	}
	r.failLog++
}

// setup runs build — the workload's set-up: generating its inputs,
// starting the program and warming it — setupRepeats times when
// untraced (once when traced or smoke), timing each and tearing down all
// but the last. It returns the last repetition's teardown.
func (r *runner) setup(build func() (teardown func(), err error)) (func(), error) {
	n := setupRepeats
	if r.cfg.traced || r.cfg.smoke {
		n = 1
	}
	for i := 0; ; i++ {
		start := time.Now()
		teardown, err := build()
		r.setupRuns = append(r.setupRuns, time.Since(start).Seconds())
		if err != nil {
			if teardown != nil {
				teardown()
			}
			return nil, err
		}
		if i == n-1 {
			if teardown == nil {
				teardown = func() {}
			}
			return teardown, nil
		}
		if teardown != nil {
			teardown()
		}
		// Start the next repetition from a collected heap, so each one
		// pays the same allocation cost.
		runtime.GC()
	}
}

// resetWarm forgets an earlier set-up repetition's warm-up, so the run
// reports the last one.
func (r *runner) resetWarm() {
	r.digest = digest{}
	r.extraAttempted, r.extraFailed = 0, 0
}

// parallelEach calls fn(i) for every i below n from one goroutine per
// CPU and returns once all calls have.
func parallelEach(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// warmed records the outcome of one warm-up answer: its hash joins the
// run's digest, a failure counts against the run.
func (r *runner) warmed(h uint64, err error) {
	r.extraAttempted++
	if err != nil {
		r.extraFailed++
		r.logFailure("warm-up", err)
		return
	}
	r.digest.add(h)
}

// loop runs the measured closed loop: one client calling op back to
// back — the next call starts only when the previous one has returned,
// like an EDA flow waiting for each answer — until the timed duration has
// passed. op receives the op's index and returns the latency it measured
// for itself, so work outside the request (building a body, auditing a
// reply) stays out of it.
//
// One client, although the machine has more CPUs: on the 2-vCPU
// development VM two clients doubled the run-to-run spread of
// throughput and p99 (fleet_serve p99 0.29 against 0.12 over six seeds),
// because a load that keeps both vCPUs busy loses them to the host in
// bursts, while a single client's work moves to whichever vCPU is free.
func (r *runner) loop(op func(i int) (time.Duration, error)) {
	d := r.cfg.timed()
	var before obs.Snapshot
	var beforeMem runtime.MemStats
	var beforeGC, beforeCPU float64
	if r.tr != nil {
		// High-water gauges have no deltas: start them from zero so they
		// report the loop, not set-up or the fleet's cache fill.
		for _, g := range highWaterGauges {
			obs.Set(g, 0)
		}
		before = obs.Default().Snapshot()
		runtime.ReadMemStats(&beforeMem)
		beforeGC, beforeCPU = cpuSeconds()
	}

	// Return set-up's garbage to the OS, so the resident set sampled
	// below is the program's while it serves the workload, not the
	// benchmark's input generation.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	// The reference kernel runs between ops once a second, so it sees the
	// machine as the ops do; its time (~1.5%) is taken off the loop's
	// clock.
	kernel := newRefKernel()
	var paused time.Duration
	start := time.Now()
	nextRef := start
	clock := func() time.Duration { return time.Since(start) - paused }
	for i := 0; clock() < d; i++ {
		if now := time.Now(); !now.Before(nextRef) {
			r.refRate = append(r.refRate, kernel.rate())
			paused += time.Since(now)
			nextRef = now.Add(time.Second)
		}
		l, err := op(i)
		r.latMS = append(r.latMS, float64(l)/float64(time.Millisecond))
		r.doneAt = append(r.doneAt, clock())
		if err != nil {
			r.failed++
			r.logFailure(fmt.Sprintf("op %d", i), err)
		}
	}
	r.elapsed = clock()
	r.rssMB, r.peakRSSMB = rss.stop()
	r.ops = len(r.latMS)

	if r.tr != nil {
		after := obs.Default().Snapshot()
		var afterMem runtime.MemStats
		runtime.ReadMemStats(&afterMem)
		gc, cpu := cpuSeconds()
		r.phase = phaseStats{
			counters:   diffCounters(before.Counters, after.Counters),
			gauges:     after.Gauges,
			allocBytes: float64(afterMem.TotalAlloc - beforeMem.TotalAlloc),
			gcCPU:      gc - beforeGC,
			totalCPU:   cpu - beforeCPU,
			spans:      r.tr.count(),
		}
	}
}

// workedNodes adds one op's worked-tree size (traced runs).
func (r *runner) workedNodes(n int) {
	if r.tr != nil {
		r.nodes += n
		r.nodeOp++
	}
}

// highWaterGauges are the program's SetMax gauges the per-layer
// metrics read.
var highWaterGauges = []string{"vg.list.highwater", "server.queue.peak"}

// phaseStats are the program-side counters across the traced loop.
type phaseStats struct {
	counters        map[string]int64
	gauges          map[string]int64
	allocBytes      float64
	gcCPU, totalCPU float64
	spans           int
}

func diffCounters(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// rssSampler samples the process's resident set every rssEvery until
// stopped.
type rssSampler struct {
	quit chan struct{}
	done chan []float64
}

const rssEvery = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		samples := []float64{residentMB()}
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				s.done <- append(samples, residentMB())
				return
			case <-t.C:
				samples = append(samples, residentMB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median and the largest sample, in
// MiB.
func (s *rssSampler) stop() (med, peak float64) {
	close(s.quit)
	samples := <-s.done
	return median(samples), slices.Max(samples)
}

// residentMB is the process's resident set in MiB, from
// /proc/self/statm; where that is unavailable, the memory the Go runtime
// holds from the OS.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys-m.HeapReleased) / (1 << 20)
}

// windowedThroughput is the median, over the loop's whole one-second
// windows, of the ops finished in each: a burst of interference from
// outside the process moves a few windows, not the median. With fewer
// than minWindowOps ops per window on average (huge_net's half-second
// solves) windows would count too few ops to mean anything, and it is
// ops over elapsed time instead.
func windowedThroughput(doneAt []time.Duration, elapsed time.Duration) float64 {
	const minWindowOps = 20
	windows := int(elapsed / time.Second)
	if windows < 3 || len(doneAt) < minWindowOps*windows {
		return float64(len(doneAt)) / elapsed.Seconds()
	}
	counts := make([]float64, windows)
	for _, t := range doneAt {
		if w := int(t / time.Second); w < windows {
			counts[w]++
		}
	}
	return median(counts)
}

// result assembles the run's record.
func (r *runner) result() (*Result, error) {
	res := &Result{
		Workload:   r.cfg.workload,
		Seed:       r.cfg.seed,
		Seconds:    r.cfg.seconds,
		Traced:     r.cfg.traced,
		Smoke:      r.cfg.smoke,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Attempted:  r.ops + r.extraAttempted,
		Failed:     r.failed + r.extraFailed,
		Digest:     r.digest.String(),
		Ops:        r.ops,
		SetupRuns:  r.setupRuns,
		Metrics:    map[string]Metric{},
	}
	if r.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the timed phase", r.cfg.workload)
	}
	res.ErrorShare = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	if !r.cfg.traced {
		r.endToEnd(res)
	} else if err := r.perLayer(res); err != nil {
		return nil, err
	}
	r.atReferenceSpeed(res)
	return res, nil
}

// atReferenceSpeed restates the run's times and rates at the reference
// kernel's speed (see reference.go), keeping the measured values.
func (r *runner) atReferenceSpeed(res *Result) {
	res.Speed = speed(r.refRate)
	res.Measured = map[string]float64{}
	for name, m := range res.Metrics {
		var v float64
		switch m.Unit {
		case "s", "ms", "us":
			v = m.Value * res.Speed
		case "ops/s":
			v = m.Value / res.Speed
		default:
			continue
		}
		res.Measured[name] = m.Value
		m.Value = v
		res.Metrics[name] = m
	}
}

// endToEnd fills the untraced metrics.
func (r *runner) endToEnd(res *Result) {
	lat := sortedCopy(r.latMS)
	p50, _ := percentile(lat, 0.50)
	p95, ok95 := percentile(lat, 0.95)
	if !ok95 {
		res.Unresolved = append(res.Unresolved, "latency_p95_ms")
	}
	set := func(name string, v float64) {
		m, _ := metricByName(name)
		res.Metrics[name] = Metric{Value: v, Unit: m.Unit}
	}
	set("setup_s", median(r.setupRuns))
	set("throughput_ops_s", windowedThroughput(r.doneAt, r.elapsed))
	set("latency_p50_ms", p50)
	set("latency_p95_ms", p95)
	set("rss_mb", r.rssMB)
	res.PeakRSSMB = r.peakRSSMB
}

// timingSpans maps each per-layer timing metric to the spans (or derived
// values) it reads, the quantile, and the unit scale from nanoseconds.
var timingSpans = []struct {
	metric string
	spans  []string // first name with samples wins
	q      float64
	scale  float64 // ns per unit
}{
	{"netfmt.read_us_p50", []string{"netfmt.read"}, 0.5, 1e3},
	{"server.decode_us_p50", []string{"server.decode"}, 0.5, 1e3},
	{"segment.us_p50", []string{"segment"}, 0.5, 1e3},
	{"core.key_us_p50", []string{"core.key"}, 0.5, 1e3},
	{"cache.hit_us_p50", []string{"cache.hit"}, 0.5, 1e3},
	{"core.solve_ms_p50", []string{"core.solve", "eco.delta"}, 0.5, 1e6},
	{"core.solve_ms_p99", []string{"core.solve", "eco.delta"}, 0.99, 1e6},
	{"analyze.us_p50", []string{"analyze"}, 0.5, 1e3},
	{"server.encode_us_p50", []string{"server.encode"}, 0.5, 1e3},
	{"server.roundtrip_ms_p50", []string{"server.roundtrip"}, 0.5, 1e6},
	{"eco.delta_ms_p50", []string{"eco.delta"}, 0.5, 1e6},
	{"eco.full_ms_p50", []string{"eco.full"}, 0.5, 1e6},
	{"eco.http_ms_p50", []string{"eco.http"}, 0.5, 1e6},
}

// perLayer fills the traced metrics.
func (r *runner) perLayer(res *Result) error {
	res.Sources = map[string]string{}
	set := func(name string, v float64, source string) {
		m, _ := metricByName(name)
		res.Metrics[name] = Metric{Value: v, Unit: m.Unit}
		if source != "" {
			res.Sources[name] = source
		}
	}
	for _, ts := range timingSpans {
		var d []float64
		var name string
		for _, name = range ts.spans {
			if d = r.tr.durations(name); len(d) > 0 {
				break
			}
		}
		if len(d) == 0 {
			return fmt.Errorf("%s: traced run recorded no %v spans for %s", r.cfg.workload, ts.spans, ts.metric)
		}
		v, ok := percentile(d, ts.q)
		if !ok && ts.q > 0.5 {
			res.Unresolved = append(res.Unresolved, ts.metric)
		}
		set(ts.metric, v/ts.scale, r.tr.kindOf(name))
	}
	for _, dv := range []struct{ metric, values string }{
		{"server.overhead_ms_p50", "server.overhead"},
		{"fleet.router_ms_p50", "fleet.router"},
	} {
		vals := r.tr.values[dv.values]
		if len(vals) == 0 {
			return fmt.Errorf("%s: traced run recorded no %s samples", r.cfg.workload, dv.values)
		}
		set(dv.metric, median(vals), "probe")
	}
	if a, n := r.tr.values["dp.alloc_bytes"], r.tr.values["dp.allocs"]; len(a) > 0 && len(n) > 0 {
		set("dp.alloc_mb_per_op", mean(a)/(1<<20), "counter")
		set("dp.allocs_per_op", mean(n), "counter")
	} else {
		return fmt.Errorf("%s: traced run measured no DP allocations", r.cfg.workload)
	}

	ops := float64(r.ops)
	c := r.phase.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set("segment.nodes_per_op", ratio(float64(r.nodes), float64(r.nodeOp)), "layer")
	set("cache.hit_rate", ratio(float64(c["server.cache.hits"]), float64(c["server.cache.lookups"])), "counter")
	set("dp.cands_generated_per_op", float64(c["vg.candidates.generated"])/ops, "counter")
	set("dp.cands_merged_per_op", float64(c["vg.candidates.merged"])/ops, "counter")
	set("dp.cands_pruned_per_op", float64(c["vg.candidates.pruned"])/ops, "counter")
	set("dp.prune_ratio", ratio(float64(c["vg.candidates.pruned"]), float64(c["vg.candidates.generated"])), "counter")
	set("dp.list_highwater", float64(r.phase.gauges["vg.list.highwater"]), "counter")
	set("dp.nodes_visited_per_op", float64(c["vg.nodes.visited"])/ops, "counter")
	set("dp.lishi_run_share", ratio(float64(c["vg.run.engine.lishi"]), float64(c["vg.run.engine.lishi"]+c["vg.run.engine.vg"])), "counter")
	set("dp.parallel_run_share", ratio(float64(c["vg.run.parallel"]), float64(c["vg.run.parallel"]+c["vg.run.serial"])), "counter")
	set("server.queue_peak", float64(r.phase.gauges["server.queue.peak"]), "counter")
	var shed, requests int64
	for k, v := range c {
		if strings.HasPrefix(k, "server.") && strings.Contains(k, ".shed.") {
			shed += v
		}
	}
	requests = c["server.requests"] + c["server.batch.nets"] + c["server.delta.requests"]
	set("server.shed_share", ratio(float64(shed), float64(requests)), "counter")
	set("fleet.hedge_rate", ratio(float64(c["fleet.hedge.launched"]), float64(c["fleet.attempt.launched"])), "counter")
	set("fleet.attempts_per_post", ratio(float64(c["fleet.attempt.launched"]), float64(c["fleet.requests"])), "counter")
	set("eco.reuse_rate", ratio(float64(c["server.delta.reused"]), float64(c["server.delta.lookups"])), "counter")
	set("eco.lookups_per_delta", ratio(float64(c["server.delta.lookups"]), float64(c["server.delta.requests"])), "counter")
	set("runtime.gc_cpu_share", ratio(r.phase.gcCPU, r.phase.totalCPU), "counter")
	set("runtime.alloc_mb_per_op", r.phase.allocBytes/(1<<20)/ops, "counter")

	un, total := r.tr.attribution()
	set("trace.unattributed_share", ratio(float64(un), float64(total)), "")
	opTotal := 0.0
	for _, d := range r.tr.opDurations() {
		opTotal += d
	}
	set("trace.overhead_share", ratio(float64(r.phase.spans)*spanCostNS(), opTotal), "")

	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			return fmt.Errorf("%s: per-layer metric %s was not measured", r.cfg.workload, m.Name)
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spanCostNS estimates what recording one span costs, by recording many
// into a scratch tracer.
func spanCostNS() float64 {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.span(1, "calibrate", kindLayer, t.now())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// printResult writes every metric by name with its unit, then the result
// line: one JSON object, the last line of standard output.
func printResult(w io.Writer, res *Result) error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d traced %v: attempted %d failed %d digest %s\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, res.Digest)
	for _, m := range defs {
		v := res.Metrics[m.Name]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.Name, v.Value, v.Unit)
	}
	if len(res.Unresolved) > 0 {
		sort.Strings(res.Unresolved)
		fmt.Fprintf(w, "  unresolved (fewer than %d samples beyond): %s\n", minBeyond, strings.Join(res.Unresolved, ", "))
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
