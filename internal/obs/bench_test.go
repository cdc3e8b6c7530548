package obs

import (
	"context"
	"testing"
)

// The enabled/disabled pairs below quantify the cost of leaving telemetry
// compiled into the hot paths: the disabled variants are the no-op
// registry baseline the acceptance criteria compare against.

func BenchmarkCounterAddEnabled(b *testing.B) {
	old := Default()
	SetDefault(NewRegistry())
	defer SetDefault(old)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add("bench.counter", 1)
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	old := Default()
	SetDefault(nil)
	defer SetDefault(old)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add("bench.counter", 1)
	}
}

func BenchmarkCounterHandleAdd(b *testing.B) {
	// The amortized pattern hot loops use: resolve the handle once, add
	// locally-accumulated totals.
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % 1_000_000)
	}
}

// spanAllocsEnabled/Disabled are the pinned per-span allocation budgets:
// the metrics-only fast path pays exactly the handle (no dotted path, no
// context value, and finish finds its metrics under the bare name), and
// the disabled path pays nothing at all. A regression here
// is a regression on every instrumented call site in the hot path, so
// both the benchmarks and TestSpanAllocBudget assert them.
const (
	spanAllocsEnabled  = 1
	spanAllocsDisabled = 0
)

func assertSpanAllocs(tb testing.TB, want float64) {
	tb.Helper()
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		_, sp := Span(ctx, "bench.span")
		sp.End()
	})
	if got != want {
		tb.Fatalf("Span+End allocates %v per op, budget is %v", got, want)
	}
}

func TestSpanAllocBudget(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	Verbose(nil, false)
	SetDefault(NewRegistry())
	assertSpanAllocs(t, spanAllocsEnabled)
	SetDefault(nil)
	assertSpanAllocs(t, spanAllocsDisabled)
}

func BenchmarkSpanEnabled(b *testing.B) {
	old := Default()
	SetDefault(NewRegistry())
	defer SetDefault(old)
	assertSpanAllocs(b, spanAllocsEnabled)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Span(ctx, "bench.span")
		sp.End()
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	old := Default()
	SetDefault(nil)
	defer SetDefault(old)
	Verbose(nil, false)
	assertSpanAllocs(b, spanAllocsDisabled)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Span(ctx, "bench.span")
		sp.End()
	}
}

// BenchmarkSpanTraced is the full-cost path: a collector is attached, so
// every span builds its path, links IDs, and records into the ring; read
// it next to the enabled/disabled baselines.
func BenchmarkSpanTraced(b *testing.B) {
	old := Default()
	SetDefault(NewRegistry())
	defer SetDefault(old)
	c := NewCollector(CollectorConfig{LatencyThreshold: -1})
	ctx, root := c.StartTrace(context.Background(), "bench.root", TraceContext{})
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Span(ctx, "bench.span")
		sp.End()
	}
}
