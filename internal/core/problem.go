package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"buffopt/internal/buffers"
	"buffopt/internal/enc"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
)

// Objective selects what Optimize maximizes or minimizes. The three
// objectives correspond to the paper's problem statements: Problem 1/2
// (slack, without and with noise constraints) and Problem 3 (buffer
// weight subject to noise and timing).
type Objective uint8

const (
	// MaxSlack maximizes the slack at the source with no noise
	// constraints — Van Ginneken's algorithm with the Lillis extensions,
	// the Section V "DelayOpt" baseline. An optional Problem.MaxBuffers
	// bound turns it into DelayOpt(k).
	MaxSlack Objective = iota
	// MaxSlackNoise maximizes slack subject to every noise constraint
	// (Problem 2, Algorithm 3). An optional Problem.MaxBuffers bound
	// restricts the search to solutions with at most k buffers.
	MaxSlackNoise
	// MinBuffersNoise inserts the minimum total buffer weight such that
	// both the noise constraints and timing (slack ≥ 0) hold, maximizing
	// slack as a secondary objective (Problem 3, the Section V "BuffOpt"
	// tool). Problem.MaxBuffers must be nil: the buffer count is the
	// objective, not a constraint.
	MinBuffersNoise
)

func (o Objective) String() string {
	switch o {
	case MaxSlack:
		return "max-slack"
	case MaxSlackNoise:
		return "max-slack-noise"
	case MinBuffersNoise:
		return "min-buffers-noise"
	}
	return fmt.Sprintf("objective(%d)", uint8(o))
}

// ParseObjective is the inverse of Objective.String. Errors wrap
// guard.ErrInvalidInput.
func ParseObjective(s string) (Objective, error) {
	for o := MaxSlack; o <= MinBuffersNoise; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: unknown objective %q: %w", s, guard.ErrInvalidInput)
}

// Problem is one complete optimization request: everything that
// determines the answer, and nothing that doesn't. Its objective plus the
// optional count bound cover the paper's five tool configurations
// (BuffOpt, BuffOpt(k), DelayOpt, DelayOpt(k) and the Section V
// minimum-buffer BuffOpt), and its CanonicalHash is the content-addressed
// cache key.
type Problem struct {
	// Tree is the routing tree to buffer. Optimize never modifies it.
	Tree *rctree.Tree
	// Library is the available buffer repertoire.
	Library *buffers.Library
	// Params are the noise-model parameters (λ, μ). Ignored — including
	// by CanonicalHash — when Objective is MaxSlack.
	Params noise.Params
	// Objective selects the problem statement.
	Objective Objective
	// MaxBuffers, when non-nil, bounds the total buffer weight (the count
	// for unit-weight libraries). Valid for MaxSlack and MaxSlackNoise;
	// must be nil for MinBuffersNoise.
	MaxBuffers *int
}

// Validate checks the request's structure. All errors wrap
// guard.ErrInvalidInput, so servers map them to 400, not 500. The tree
// itself is checked at the doors (Optimize, Solve, NewSession run
// Tree.Validate once each; a Delta checks what its edits touched) and the
// noise parameters by the dynamic program; here only the shape of the
// request is checked.
func (p Problem) Validate() error {
	if p.Tree == nil {
		return fmt.Errorf("core: Problem.Tree is nil: %w", guard.ErrInvalidInput)
	}
	if p.Library == nil {
		return fmt.Errorf("core: Problem.Library is nil: %w", guard.ErrInvalidInput)
	}
	if err := p.Library.Validate(); err != nil {
		return invalid(err)
	}
	if p.Objective > MinBuffersNoise {
		return fmt.Errorf("core: unknown objective %d: %w", p.Objective, guard.ErrInvalidInput)
	}
	if p.MaxBuffers != nil {
		if *p.MaxBuffers < 0 {
			return fmt.Errorf("core: negative buffer bound %d: %w", *p.MaxBuffers, guard.ErrInvalidInput)
		}
		if p.Objective == MinBuffersNoise {
			return fmt.Errorf("core: %s takes no buffer bound (the count is the objective): %w",
				p.Objective, guard.ErrInvalidInput)
		}
	}
	return nil
}

// Optimize solves one Problem. It is the single front door to the
// dynamic program: the objective plus the optional count bound select the
// configuration, and the DP picks its merge path and parallelism from the
// problem.
//
// ctx carries cancellation. When opts.Budget is nil (or bound to a
// different context), a budget wired to ctx is installed so cancellation
// reaches the inner loops; when opts.Budget already carries ctx, it is
// used as-is, preserving the caller's usage high-water marks.
//
// The answer passes core's answer gate (see gate): one that fails the
// post-conditions returns an error wrapping guard.ErrInternal.
//
// Validation failures wrap guard.ErrInvalidInput. For graceful
// degradation under deadline pressure, use Solve, which runs the
// MinBuffersNoise objective down a ladder of weaker engines; Optimize
// runs exactly one engine and returns its error.
func Optimize(ctx context.Context, p Problem, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return gate(ctx, func() (*Result, error) {
		// Inside run, so gate burns an injected slow fault first
		// whatever the tree.
		if err := p.Tree.Validate(); err != nil {
			return nil, invalid(err)
		}
		return solveProblem(ctx, "optimize", p, opts)
	})
}

// budgetFor reconciles the caller's context with the caller's budget.
// When the budget already carries ctx — including the nil-budget,
// background-context pairing — it is returned unchanged, so callers keep
// their exact Budget object (and its usage marks). Otherwise a fresh
// budget bound to ctx is built with the same resource caps.
func budgetFor(ctx context.Context, b *guard.Budget) *guard.Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx == b.Context() {
		return b
	}
	return withCaps(ctx, b)
}

// withCaps builds a budget bound to ctx carrying caps' resource caps
// (none when caps is nil). It is core's one copy of the caps.
func withCaps(ctx context.Context, caps *guard.Budget) *guard.Budget {
	b := guard.New(ctx)
	if caps != nil {
		b.MaxCandidates = caps.MaxCandidates
		b.MaxTreeNodes = caps.MaxTreeNodes
		b.MaxSimSteps = caps.MaxSimSteps
	}
	return b
}

// hashVersion prefixes every canonical hash; bump it whenever the
// serialization below changes, so stale cache entries from an older
// binary can never alias a new request.
const hashVersion = "buffopt.problem.v1"

// hashChunk bounds CanonicalHash's buffer: the preorder's node keys are
// flushed into the digest each time they pass three quarters of it, so a
// huge tree hashes in 4 KiB pieces instead of one tree-sized buffer.
const hashChunk = 4 << 10

// CanonicalHash returns the content-addressed identity of the request as
// a hex SHA-256: two Problems hash equal iff the solver computes the same
// answer for both, byte for byte.
//
// Included: the driver model; a preorder walk of the tree writing each
// node's rctree.Tree.AppendNodeKey bytes — kind, buffer feasibility, wire
// parasitics (R, C, length, and the explicit aggressor list — nil and
// empty are distinct, because nil selects the estimation mode), sink
// properties (cap, RAT, noise margin) and child count; the buffer
// library's buffers.Library.AppendKey bytes, every buffer in order with
// every electrical field plus name and weight; the noise parameters
// (skipped for MaxSlack, which never reads them); the objective; and the
// count bound.
//
// Excluded, deliberately: node names, IDs, and X/Y coordinates (reports
// only — two nets differing only in labels are the same problem);
// all deadlines (results are bit-identical across them); and Options'
// output-affecting knobs, which the cache layers on top (see
// SolveCacheKey). Sibling order is preserved, not sorted: the
// branch-merge order can steer tie-breaking among equal-slack candidates,
// so reordered children are a different problem even though renumbered
// nodes are not.
func (p Problem) CanonicalHash() string {
	h := sha256.New()
	b := make([]byte, 0, hashChunk)
	b = enc.Str64(b, hashVersion)
	if p.Tree == nil {
		b = append(b, 0xff)
	} else {
		b = append(b, 1)
		b = enc.F64(b, p.Tree.DriverResistance)
		b = enc.F64(b, p.Tree.DriverDelay)
		var st [64]rctree.NodeID
		stack := append(st[:0], p.Tree.Root())
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b = p.Tree.AppendNodeKey(b, id)
			if len(b) >= hashChunk-hashChunk/4 {
				h.Write(b)
				b = b[:0]
			}
			ch := p.Tree.Node(id).Children
			for i := len(ch) - 1; i >= 0; i-- {
				stack = append(stack, ch[i])
			}
		}
	}
	if p.Library == nil {
		b = append(b, 0xff)
	} else {
		b = p.Library.AppendKey(append(b, 1))
	}
	b = append(b, byte(p.Objective))
	if p.Objective != MaxSlack {
		b = enc.F64(b, p.Params.CouplingRatio)
		b = enc.F64(b, p.Params.Slope)
	}
	if p.MaxBuffers == nil {
		b = append(b, 0)
	} else {
		b = enc.U64(append(b, 1), uint64(int64(*p.MaxBuffers)))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}
