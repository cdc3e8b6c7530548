package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Span instruments one named phase of work. On End (or Fail) it records
//
//	<name>.duration_ns  counter: total nanoseconds across all runs
//	<name>.count        counter: number of runs
//	span.<name>         histogram: per-run duration distribution
//
// into the default registry, and — when tracing is enabled (SetTraceLogger
// / Verbose, the CLIs' -v flag) — emits a Debug slog event carrying the
// span's full dotted path, so nested spans ("solve.tier.exact" containing
// "vg.run") are readable as a hierarchy.
//
// When the context carries a trace (it descends from Collector.StartTrace),
// the span additionally gets a span ID linked under its parent's and is
// recorded into that collector on End, with whatever attributes were set
// via SetAttr/Annotate. The returned context carries the span, so children
// started from it nest under it in both the dotted path and the trace tree.
//
// When both the registry and tracing are disabled, Span returns a nil
// handle whose methods are no-ops, so instrumented call sites cost two
// atomic loads. When only metrics are enabled (the common production
// fast path), neither the dotted path nor a context value is built —
// the input context is returned unchanged.
func Span(ctx context.Context, name string) (context.Context, *SpanHandle) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc, _ := ctx.Value(spanKey{}).(*spanContext)
	if tracer.Load() == nil && (sc == nil || sc.col == nil) {
		// No trace logger and no collector upstream: spans exist only to
		// feed registry metrics, which need the bare name, not the path
		// or a context chain. Skip both allocations.
		if Default() == nil {
			return ctx, nil
		}
		return ctx, &SpanHandle{name: name, start: time.Now()}
	}
	path := name
	if sc != nil && sc.path != "" {
		path = sc.path + "/" + name
	}
	s := &SpanHandle{name: name, path: path, start: time.Now()}
	child := &spanContext{path: path, handle: s}
	if sc != nil && sc.col != nil {
		s.col = sc.col
		s.trace = sc.trace
		s.parent = sc.span
		s.id = NewSpanID()
		sc.col.started.Add(1)
		child.col = sc.col
		child.trace = sc.trace
		child.span = s.id
	}
	return context.WithValue(ctx, spanKey{}, child), s
}

type spanKey struct{}

// spanContext is the per-context span state: the enclosing span's dotted
// path for nesting, its trace/span identity for child linking, the
// collector spans record into, and the handle itself so Annotate can
// attach attributes to the nearest enclosing span.
type spanContext struct {
	col    *Collector
	path   string
	trace  TraceID
	span   SpanID
	handle *SpanHandle
}

// Attr is one span attribute (cache=hit, tier=greedy, fault=panic, ...).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanHandle is one in-flight span. All methods are nil-safe.
type SpanHandle struct {
	name  string
	path  string
	start time.Time

	// Trace identity; zero when the span is metrics-only.
	col    *Collector
	trace  TraceID
	id     SpanID
	parent SpanID

	done  atomic.Bool
	mu    sync.Mutex
	attrs []Attr
}

// TraceID returns the span's trace ID (zero when untraced).
func (s *SpanHandle) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID returns the span's ID (zero when untraced).
func (s *SpanHandle) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr sets a key=value attribute on the span, replacing any earlier
// value for the same key (so "hedge"="launched" can later become
// "hedge"="won", and a ledger counting spans-with-attr sees each span
// once). Safe from concurrent goroutines and on a nil handle.
func (s *SpanHandle) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Annotate sets a key=value attribute on the nearest enclosing span in
// ctx; it is a no-op when ctx carries none. It is how layers that don't
// own a span — the cache, the fault injector, the admission queue —
// stamp their verdict (cache=hit, fault=cancel, shed=queue_full) onto
// the request's trace.
func Annotate(ctx context.Context, key, value string) {
	if ctx == nil {
		return
	}
	if sc, _ := ctx.Value(spanKey{}).(*spanContext); sc != nil {
		sc.handle.SetAttr(key, value)
	}
}

// TraceIDFrom returns the trace ID carried by ctx (zero when untraced).
func TraceIDFrom(ctx context.Context) TraceID {
	if ctx == nil {
		return TraceID{}
	}
	if sc, _ := ctx.Value(spanKey{}).(*spanContext); sc != nil {
		return sc.trace
	}
	return TraceID{}
}

// TraceContextFrom returns the current trace/span identity carried by
// ctx — what an outgoing traceparent header should name as the parent.
// Zero when ctx is untraced.
func TraceContextFrom(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	if sc, _ := ctx.Value(spanKey{}).(*spanContext); sc != nil {
		return TraceContext{TraceID: sc.trace, SpanID: sc.span}
	}
	return TraceContext{}
}

// End records the span's duration. Safe to call on a nil handle; a
// second End/Fail on the same handle is a no-op (the books count each
// span exactly once).
func (s *SpanHandle) End() { s.finish(nil) }

// Fail records the span's duration and, when err is non-nil, returns err
// wrapped with the span name ("vg.run: <err>") while preserving the
// errors.Is/As chain. Typical use:
//
//	ctx, sp := obs.Span(ctx, "solve.tier.exact")
//	res, err := run(ctx)
//	return res, sp.Fail(err)
func (s *SpanHandle) Fail(err error) error {
	s.finish(err)
	if err == nil || s == nil {
		return err
	}
	return fmt.Errorf("%s: %w", s.name, err)
}

func (s *SpanHandle) finish(err error) {
	if s == nil || s.done.Swap(true) {
		return
	}
	d := time.Since(s.start)
	if r := Default(); r != nil {
		m := r.spanMetrics(s.name)
		m.dur.Add(d.Nanoseconds())
		m.count.Add(1)
		m.hist.Observe(d.Nanoseconds())
	}
	if s.col != nil {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		s.mu.Lock()
		attrs := append([]Attr(nil), s.attrs...)
		s.mu.Unlock()
		s.col.record(SpanRecord{
			Trace:    s.trace,
			ID:       s.id,
			Parent:   s.parent,
			Name:     s.name,
			Path:     s.path,
			Start:    s.start,
			Duration: d,
			Err:      errStr,
			Attrs:    attrs,
		})
	}
	if l := tracer.Load(); l != nil {
		p := s.path
		if p == "" {
			// Metrics-only fast-path handle; tracing flipped on mid-span.
			p = s.name
		}
		args := []any{"span", p, "dur", d}
		if !s.trace.IsZero() {
			args = append(args, "trace", s.trace.String())
		}
		if err != nil {
			args = append(args, "err", err)
		}
		l.Debug("span", args...)
	}
}

// ---------------------------------------------------------------- tracing

var tracer atomic.Pointer[slog.Logger]

// SetTraceLogger installs the logger span events are emitted through; nil
// disables tracing (the default).
func SetTraceLogger(l *slog.Logger) { tracer.Store(l) }

// TraceLogger returns the installed trace logger, or nil.
func TraceLogger() *slog.Logger { return tracer.Load() }

// Verbose switches span tracing on (to w, typically os.Stderr, at Debug
// level in slog's text format) or off. It is what the CLIs' -v flag calls.
func Verbose(w io.Writer, on bool) {
	if !on {
		SetTraceLogger(nil)
		return
	}
	SetTraceLogger(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})))
}

// Timer is the span shorthand for call sites without a context: it starts
// timing name and returns the function that records it. Timer spans carry
// no trace identity (no context, no collector).
//
//	defer obs.Timer("elmore.analyze")()
func Timer(name string) func() {
	if Default() == nil && tracer.Load() == nil {
		return func() {}
	}
	s := &SpanHandle{name: name, path: name, start: time.Now()}
	return s.End
}
