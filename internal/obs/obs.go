// Package obs is the solver stack's telemetry layer: atomic counters,
// gauges, and bucketed histograms collected in a Registry, exported as a
// deterministic JSON snapshot or through expvar, plus a lightweight span
// API (see span.go) that records per-phase wall time and emits structured
// log/slog events when tracing is enabled.
//
// The package is stdlib-only and designed so that instrumentation can stay
// compiled into the hot paths permanently:
//
//   - The package-level helpers (Add, Inc, SetMax, Observe…) consult the
//     default registry through one atomic pointer load; with the registry
//     disabled (SetDefault(nil)) every helper is a nil test and a return.
//   - With the registry enabled, a counter update is one read-locked map
//     lookup plus one atomic add. Hot loops amortize further by
//     accumulating locally and flushing once per run (see core's vgStats).
//
// Metric naming follows a dotted lowercase hierarchy, unit-suffixed where
// not obvious: "vg.candidates.generated", "solve.tier.exact.duration_ns",
// "circuit.transient.steps". DESIGN.md §9 catalogs the names.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value with a high-water-mark helper.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger (an atomic high-water mark).
// Nil-safe.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds, plus a catch-all overflow bucket, and tracks count and sum.
type Histogram struct {
	bounds []int64 // sorted inclusive upper bounds
	counts []atomic.Int64
	over   atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	// ex holds the latest exemplar per bucket (slot len(bounds) is the
	// overflow bucket's); see ObserveExemplar in prom.go.
	ex []atomic.Pointer[Exemplar]
}

// NewHistogram builds a histogram over the given inclusive upper bounds,
// which must be sorted ascending.
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds))
	h.ex = make([]atomic.Pointer[Exemplar], len(h.bounds)+1)
	return h
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistBucket is one histogram bucket in a snapshot.
type HistBucket struct {
	// Le is the inclusive upper bound; the overflow bucket uses the
	// string "inf".
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistSnapshot is a histogram's state at snapshot time.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets"`
}

// Default bucket sets. DurationBuckets cover 1 µs to ~100 s in decade
// steps with 1-2-5 subdivisions; SizeBuckets cover 1 to 2^20 in powers of
// four. Both are small enough that Observe's binary search is a few
// comparisons.
var (
	DurationBuckets = []int64{
		1_000, 2_000, 5_000, // 1-5 µs
		10_000, 20_000, 50_000,
		100_000, 200_000, 500_000,
		1_000_000, 2_000_000, 5_000_000, // 1-5 ms
		10_000_000, 20_000_000, 50_000_000,
		100_000_000, 200_000_000, 500_000_000,
		1_000_000_000, 2_000_000_000, 5_000_000_000, // 1-5 s
		10_000_000_000, 100_000_000_000,
	}
	SizeBuckets = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use, and nil-safe: a
// nil *Registry silently drops every update, which is how telemetry is
// disabled globally (SetDefault(nil)).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// spans caches each span name's three metrics (spanMetrics), so a
	// span's end neither builds their names nor looks each one up.
	spans map[string]*spanMetrics
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*spanMetrics{},
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registries return nil (whose methods no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// buckets on first use (later calls ignore the bucket argument).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// spanMetrics is what a span named name records into: the
// <name>.duration_ns and <name>.count counters and the span.<name>
// histogram.
type spanMetrics struct {
	dur, count *Counter
	hist       *Histogram
}

// spanMetrics returns name's span metrics, creating them on first use.
func (r *Registry) spanMetrics(name string) *spanMetrics {
	r.mu.RLock()
	m := r.spans[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	m = &spanMetrics{
		dur:   r.Counter(name + ".duration_ns"),
		count: r.Counter(name + ".count"),
		hist:  r.Histogram("span."+name, DurationBuckets),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev := r.spans[name]; prev != nil {
		return prev
	}
	r.spans[name] = m
	return m
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON export.
// Map keys marshal in sorted order (encoding/json guarantees this), so two
// snapshots of the same state produce byte-identical JSON.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		for i, b := range h.bounds {
			hs.Buckets = append(hs.Buckets, HistBucket{Le: fmt.Sprintf("%d", b), Count: h.counts[i].Load()})
		}
		hs.Buckets = append(hs.Buckets, HistBucket{Le: "inf", Count: h.over.Load()})
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ---------------------------------------------------------------- default

// def is the process-wide default registry. It starts live: telemetry is
// always collected unless explicitly disabled with SetDefault(nil). The
// cost of leaving it on is one atomic add per (amortized) event; the
// no-op-registry benchmarks in bench_test.go quantify the difference.
var def atomic.Pointer[Registry]

func init() {
	def.Store(NewRegistry())
}

// Default returns the process-wide registry, or nil when disabled.
func Default() *Registry { return def.Load() }

// SetDefault replaces the process-wide registry. Pass nil to disable all
// package-level telemetry; pass NewRegistry() for a fresh slate (tests).
func SetDefault(r *Registry) { def.Store(r) }

// Enabled reports whether the default registry is live.
func Enabled() bool { return def.Load() != nil }

// Add adds n to the named default-registry counter.
func Add(name string, n int64) { def.Load().Counter(name).Add(n) }

// Inc increments the named default-registry counter.
func Inc(name string) { def.Load().Counter(name).Add(1) }

// Set stores v in the named default-registry gauge.
func Set(name string, v int64) { def.Load().Gauge(name).Set(v) }

// SetMax raises the named default-registry gauge to v if larger.
func SetMax(name string, v int64) { def.Load().Gauge(name).SetMax(v) }

// ObserveDuration records a nanosecond duration into the named histogram
// with the standard duration buckets.
func ObserveDuration(name string, ns int64) {
	def.Load().Histogram(name, DurationBuckets).Observe(ns)
}

// ObserveSize records a size/count observation into the named histogram
// with the standard size buckets.
func ObserveSize(name string, n int64) {
	def.Load().Histogram(name, SizeBuckets).Observe(n)
}

// WriteSnapshotFile dumps the default registry's snapshot to path as
// indented JSON (the CLIs' -metrics flag).
func WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := Default().WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ----------------------------------------------------------------- expvar

var publishOnce sync.Once

// publishExpvar publishes the default registry under the expvar key
// "buffopt", so the snapshot is visible at /debug/vars on the -pprof
// debug listener. Safe to call more than once.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("buffopt", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}
