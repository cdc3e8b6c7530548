// Package faultinject is the deterministic chaos layer behind the soak
// harness: it decides, per request, whether to inject one of a small set
// of faults — a slow solve, a spurious cancellation, a worker panic, a
// malformed solver result, or (at fleet level) a replica partition or
// kill — so the service stack's failure handling can be exercised on
// demand instead of waiting for production to do it.
//
// Design constraints, in order:
//
//   - Deterministic. An Injector draws from a seeded PRNG; two runs with
//     the same seed and the same request arrival order make the same
//     decisions. No wall-clock randomness anywhere, so soak tests are
//     reproducible and the injected totals are exact.
//   - Exactly-once accounting. Each admitted request gets a Plan carrying
//     at most one fault; the fault fires at most once (Plan.Take is
//     take-once), and every consumption increments an obs counter
//     ("fault.injected.<fault>"), so a test can assert that observed
//     failures equal injected totals.
//   - Build-tag free and off by default. The hooks in guard, core, and
//     server consult the request context for a Plan; without one the cost
//     is a context value lookup at budget construction, not per loop
//     iteration, and no behavior changes.
//
// The layer deliberately injects faults at trust boundaries the stack
// already defends (budget checks, panic isolation, result validation)
// rather than corrupting arbitrary memory: the point is to prove the
// defenses work, not to crash the process in ways no defense could catch.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffopt/internal/obs"
)

// Fault enumerates the injectable faults. FaultNone means "this request
// runs clean".
type Fault int

const (
	FaultNone Fault = iota
	// FaultSlow delays the solve by the injector's configured delay
	// before any real work starts — the "stuck worker" scenario that
	// admission control and per-request deadlines must absorb.
	FaultSlow
	// FaultCancel makes one budget check report a spurious cancellation
	// mid-solve (guard.ErrCanceled without the caller's context actually
	// being done), which the degradation ladder must absorb by falling to
	// the next tier.
	FaultCancel
	// FaultPanic panics inside the serving worker, which the panic
	// isolation boundary must convert into a per-request failure instead
	// of a process death.
	FaultPanic
	// FaultMalformed corrupts a solver answer (the malformed
	// candidate-list scenario of Section IV-C gone undetected), which
	// core's answer gate must catch: the ladder degrades past it,
	// Optimize and Delta return it as an internal error.
	FaultMalformed
	// FaultPartition is a replica-level fault: the target replica stops
	// answering health probes and blackholes requests (connections hang
	// instead of erroring), which the fleet router's hedging and health
	// probing must detect and route around. Unlike the per-request faults
	// above, no in-process hook consumes it — the fleet soak harness draws
	// it and applies the partition itself, so it must not be configured on
	// a bufferd replica's injector (the plan would never fire and the
	// assigned/consumed books would not balance).
	FaultPartition
	// FaultKill is a replica-level fault: the target replica's process
	// exits mid-flight, abruptly closing its listener and every active
	// connection. Like FaultPartition it is consumed by the fleet chaos
	// harness, not by the request-path hooks.
	FaultKill
	// FaultRestart is a replica-level fault: the target replica's process
	// is killed and then restarted on the same address — the rolling
	// deploy / crash-loop scenario. The restarted replica warm-starts
	// from its cache snapshot, which the chaos harness may have corrupted
	// or torn in between, so the boot-time snapshot validation and the
	// peer read-through fill are what keep the fleet's answers identical
	// across the window. Like FaultPartition and FaultKill it is consumed
	// by the fleet chaos harness, not by the request-path hooks.
	FaultRestart

	numFaults
)

// ReplicaLevel reports whether f is a replica-level fault (partition,
// kill, restart): one consumed by the fleet chaos harness rather than by
// the per-request hook points in guard, core, and server.
func ReplicaLevel(f Fault) bool {
	return f == FaultPartition || f == FaultKill || f == FaultRestart
}

// String returns the fault's stable lowercase name, used in flag specs,
// metric keys ("fault.injected.<name>") and test assertions.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSlow:
		return "slow"
	case FaultCancel:
		return "cancel"
	case FaultPanic:
		return "panic"
	case FaultMalformed:
		return "malformed"
	case FaultPartition:
		return "partition"
	case FaultKill:
		return "kill"
	case FaultRestart:
		return "restart"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// ParseFault is the inverse of Fault.String for the injectable faults
// (everything but "none").
func ParseFault(s string) (Fault, error) {
	for f := FaultSlow; f < numFaults; f++ {
		if f.String() == s {
			return f, nil
		}
	}
	return FaultNone, fmt.Errorf("faultinject: unknown fault %q (want slow, cancel, panic, malformed, partition, kill, or restart)", s)
}

// ErrInjected marks an error as deliberately injected, so logs and tests
// can tell chaos from genuine failures with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Config configures an Injector.
type Config struct {
	// Seed seeds the decision PRNG. Two injectors with equal seeds and
	// equal Assign call sequences make identical decisions.
	Seed int64
	// Rates maps each fault to the probability that a request draws it.
	// The probabilities must be in [0, 1] and sum to at most 1; the
	// remainder is the probability of a clean request.
	Rates map[Fault]float64
	// SlowDelay is the delay FaultSlow injects. Zero disables the delay
	// even when the fault is drawn.
	SlowDelay time.Duration
}

// ParseRates parses a CLI fault spec like "slow=0.1,cancel=0.05,panic=0.02"
// into a rate map. An empty spec yields an empty map (no faults). A fault
// named twice is rejected rather than silently last-writer-wins: a spec
// like "slow=0.5,slow=0" almost certainly means an operator edited the
// wrong half, and the soak's exact accounting depends on the configured
// mix being the intended one. Rates outside [0, 1] parse here and are
// rejected by New, so the two error surfaces stay distinct (spec syntax
// vs. distribution validity).
func ParseRates(spec string) (map[Fault]float64, error) {
	rates := map[Fault]float64{}
	if strings.TrimSpace(spec) == "" {
		return rates, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: malformed rate %q (want fault=probability)", part)
		}
		f, err := ParseFault(name)
		if err != nil {
			return nil, err
		}
		if _, dup := rates[f]; dup {
			return nil, fmt.Errorf("faultinject: fault %s specified twice", name)
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: rate for %s: %w", name, err)
		}
		rates[f] = p
	}
	return rates, nil
}

// Injector draws per-request fault plans from a seeded PRNG and counts
// what it assigned and what was consumed. Safe for concurrent use.
type Injector struct {
	mu        sync.Mutex
	rng       *rand.Rand
	cum       []cumRate // cumulative distribution in fixed fault order
	slowDelay time.Duration

	assigned [numFaults]atomic.Int64
	consumed [numFaults]atomic.Int64
}

type cumRate struct {
	fault Fault
	upto  float64
}

// New validates cfg and returns an Injector.
func New(cfg Config) (*Injector, error) {
	inj := &Injector{
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		slowDelay: cfg.SlowDelay,
	}
	// Fixed iteration order keeps the cumulative distribution — and with
	// it the decision sequence — independent of map iteration order.
	total := 0.0
	for f := FaultSlow; f < numFaults; f++ {
		p, ok := cfg.Rates[f]
		if !ok {
			continue
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("faultinject: rate for %s = %g outside [0, 1]", f, p)
		}
		total += p
		inj.cum = append(inj.cum, cumRate{fault: f, upto: total})
	}
	if total > 1 {
		return nil, fmt.Errorf("faultinject: fault rates sum to %g > 1", total)
	}
	for f := range cfg.Rates {
		if f <= FaultNone || f >= numFaults {
			return nil, fmt.Errorf("faultinject: rate for invalid fault %d", int(f))
		}
	}
	return inj, nil
}

// Assign draws one request's plan: at most one fault, each with its
// configured probability. A nil injector (chaos disabled) returns nil,
// as does a clean draw — so a nil *Plan always means "run clean".
func (i *Injector) Assign() *Plan {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	u := i.rng.Float64()
	i.mu.Unlock()
	fault := FaultNone
	for _, c := range i.cum {
		if u < c.upto {
			fault = c.fault
			break
		}
	}
	if fault == FaultNone {
		return nil
	}
	i.assigned[fault].Add(1)
	return &Plan{inj: i, fault: fault, delay: i.slowDelay}
}

// Assigned returns how many requests were assigned the fault so far.
func (i *Injector) Assigned(f Fault) int64 {
	if i == nil || f <= FaultNone || f >= numFaults {
		return 0
	}
	return i.assigned[f].Load()
}

// Consumed returns how many assigned faults actually fired (Plan.Take
// returned true) so far. For requests that run to completion, Consumed
// equals Assigned; a request shed before its fault's hook point leaves
// the gap between the two.
func (i *Injector) Consumed(f Fault) int64 {
	if i == nil || f <= FaultNone || f >= numFaults {
		return 0
	}
	return i.consumed[f].Load()
}

// Counts renders the assigned/consumed tallies for logs.
func (i *Injector) Counts() string {
	if i == nil {
		return "faultinject: disabled"
	}
	var parts []string
	for f := FaultSlow; f < numFaults; f++ {
		if a := i.assigned[f].Load(); a > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d/%d", f, i.consumed[f].Load(), a))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "faultinject: no faults assigned"
	}
	return "faultinject: consumed/assigned " + strings.Join(parts, " ")
}

// Plan is one request's fault assignment. All methods are nil-safe; a nil
// plan never fires anything.
type Plan struct {
	inj   *Injector
	fault Fault
	delay time.Duration
	taken atomic.Bool
}

// Take reports whether this plan carries fault f and, the first time it
// does, consumes it: exactly one Take(f) across all hook points returns
// true per plan. Consumption is counted on the injector and in the obs
// registry ("fault.injected.<fault>").
func (p *Plan) Take(f Fault) bool {
	if p == nil || p.fault != f || p.taken.Swap(true) {
		return false
	}
	if p.inj != nil {
		p.inj.consumed[f].Add(1)
	}
	obs.Inc("fault.injected." + f.String())
	return true
}

// Delay returns the slow-fault delay this plan would inject.
func (p *Plan) Delay() time.Duration {
	if p == nil {
		return 0
	}
	return p.delay
}

// ------------------------------------------------------- context plumbing

type planKey struct{}

// WithPlan attaches a request's fault plan to its context; the guard,
// core, and server hook points find it with PlanFrom/Take. A nil plan
// returns ctx unchanged.
func WithPlan(ctx context.Context, p *Plan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, planKey{}, p)
}

// PlanFrom returns the plan attached to ctx, or nil.
func PlanFrom(ctx context.Context) *Plan {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(planKey{}).(*Plan)
	return p
}

// Take is the one-line hook-point helper: it fires fault f if ctx carries
// a plan assigning it and the plan has not fired yet. A fired fault also
// stamps fault=<name> onto the enclosing span (when ctx carries one), so
// every injected fault maps to exactly one recorded trace — the equality
// the trace soak asserts against Injector.Consumed.
func Take(ctx context.Context, f Fault) bool {
	if PlanFrom(ctx).Take(f) {
		obs.Annotate(ctx, "fault", f.String())
		return true
	}
	return false
}
