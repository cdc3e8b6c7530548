package obs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// TestSpanRecordsMetrics: ending a span populates duration, count, and
// the per-run histogram.
func TestSpanRecordsMetrics(t *testing.T) {
	r := fresh(t)
	_, sp := Span(context.Background(), "test.phase")
	sp.End()
	if got := r.Counter("test.phase.count").Value(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if r.Counter("test.phase.duration_ns").Value() < 0 {
		t.Fatal("negative duration")
	}
	if got := r.Histogram("span.test.phase", DurationBuckets).Count(); got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
}

// TestSpanNesting: a child span started from the parent's context carries
// the parent path in its trace output.
func TestSpanNesting(t *testing.T) {
	fresh(t)
	var buf bytes.Buffer
	Verbose(&buf, true)
	defer Verbose(nil, false)

	ctx, parent := Span(context.Background(), "solve.tier.exact")
	_, child := Span(ctx, "vg.run")
	child.End()
	parent.End()

	out := buf.String()
	if !strings.Contains(out, "span=solve.tier.exact/vg.run") {
		t.Errorf("child span path missing from trace:\n%s", out)
	}
	if !strings.Contains(out, "span=solve.tier.exact dur=") {
		t.Errorf("parent span missing from trace:\n%s", out)
	}
}

// TestSpanFailPreservesErrorChain: Fail wraps with the span name but
// errors.Is still reaches the original sentinel.
func TestSpanFailPreservesErrorChain(t *testing.T) {
	fresh(t)
	sentinel := errors.New("sentinel")
	_, sp := Span(context.Background(), "failing.phase")
	err := sp.Fail(errors.Join(errors.New("outer"), sentinel))
	if err == nil {
		t.Fatal("Fail(non-nil) returned nil")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the sentinel through Fail: %v", err)
	}
	if !strings.Contains(err.Error(), "failing.phase") {
		t.Fatalf("span name missing from error: %v", err)
	}
	// Fail(nil) is nil and still records the span.
	r := Default()
	_, sp2 := Span(context.Background(), "ok.phase")
	if err := sp2.Fail(nil); err != nil {
		t.Fatalf("Fail(nil) = %v", err)
	}
	if got := r.Counter("ok.phase.count").Value(); got != 1 {
		t.Fatalf("ok.phase.count = %d, want 1", got)
	}
}

// TestSpanDisabledIsNil: with both registry and tracing off, Span returns
// a nil handle whose methods are safe.
func TestSpanDisabledIsNil(t *testing.T) {
	old := Default()
	SetDefault(nil)
	defer SetDefault(old)
	Verbose(nil, false)

	ctx, sp := Span(context.Background(), "nothing")
	if sp != nil {
		t.Fatal("expected nil handle when disabled")
	}
	sp.End() // must not panic
	if err := sp.Fail(errors.New("x")); err == nil || err.Error() != "x" {
		t.Fatalf("nil handle Fail should pass the error through unchanged, got %v", err)
	}
	if ctx == nil {
		t.Fatal("nil ctx returned")
	}
}

// TestTimer: the context-free shorthand records the same metrics.
func TestTimer(t *testing.T) {
	r := fresh(t)
	Timer("timed.phase").End()
	if got := r.Counter("timed.phase.count").Value(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestSpanNilContext: Span tolerates a nil context.
func TestSpanNilContext(t *testing.T) {
	fresh(t)
	//lint:ignore SA1012 deliberate nil-context robustness test
	ctx, sp := Span(nil, "nilctx") //nolint:staticcheck
	sp.End()
	if ctx == nil {
		t.Fatal("nil ctx returned")
	}
}
