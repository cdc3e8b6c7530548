package core

import (
	"crypto/sha256"
	"encoding/hex"

	"buffopt/internal/cache"
	"buffopt/internal/enc"
	"buffopt/internal/guard"
)

// SolveCache memoizes whole-net SolveResults by canonical problem hash.
// The solver is deterministic (the differential suite proves serial,
// parallel, and repeated runs bit-identical), so a hit returns exactly
// the bytes a fresh solve would have produced. Share one SolveCache
// across goroutines freely; concurrent identical requests coalesce onto
// one solve.
type SolveCache = cache.Cache[*SolveResult]

// NewSolveCache builds a cache for SolveResults bounded by entries and
// bytes (0 disables the respective bound), reporting its counters under
// "<namespace>.cache.*" in the obs registry. Every read hands out the
// stored *SolveResult itself: an answer is read-only once the solver's
// answer gate returns it, so callers must not mutate what they get back.
// A caller that stamps per-request fields (Cached, Coalesced) copies the
// header first (r := *res) and writes to the copy.
func NewSolveCache(entries int, bytes int64, namespace string) *SolveCache {
	return cache.New(cache.Config[*SolveResult]{
		MaxEntries: entries,
		MaxBytes:   bytes,
		Size:       solveResultSize,
		Namespace:  namespace,
	})
}

// solveResultSize approximates a result's resident footprint: the
// answer's own tree (finishVG's compact copy, one per solve) dominates,
// then the assignment maps and tier metadata. The constants are
// deliberately generous — the byte bound is a memory safety valve, not
// an accounting ledger.
func solveResultSize(r *SolveResult) int64 {
	const (
		base      = 256 // SolveResult + Result + Solution headers
		perNode   = 200 // rctree.Node incl. children slice overhead
		perBuffer = 96  // map entry + Buffer value (incl. name header)
		perWidth  = 32  // map entry + float
		perTier   = 192 // TierError + wrapped error chain
	)
	sz := int64(base)
	if r == nil {
		return sz
	}
	if r.Result != nil && r.Solution != nil {
		if r.Tree != nil {
			sz += int64(r.Tree.Len()) * perNode
		}
		sz += int64(len(r.Buffers)) * perBuffer
		sz += int64(len(r.Widths)) * perWidth
	}
	sz += int64(len(r.TierErrors)) * perTier
	return sz
}

// Cacheable reports whether a SolveResult may be stored: exact results
// always (no tier errors), degraded results only when every failed tier
// failed for a deterministic reason — a resource-cap trip, class
// "budget". A wall-clock deadline ("canceled"), a panic, or an internal
// post-condition violation depends on scheduling luck, so a result shaped
// by one must never be served to a future request that might do better.
func Cacheable(r *SolveResult) bool {
	if r == nil {
		return false
	}
	for _, te := range r.TierErrors {
		if guard.Class(te.Err) != "budget" {
			return false
		}
	}
	return true
}

// SolveCacheKey is the cache key for Solve(ctx, p.Tree, p.Library,
// p.Params, opts): the canonical hash of the problem Solve answers —
// p under Solve's own objective, MinBuffersNoise with no count bound,
// whatever p's objective and bound say, so the noise parameters Solve
// reads are always keyed — extended with the Options fields that steer
// Solve's output. Resource caps are included — a
// budget-starved ladder deterministically lands on a different
// (degraded) answer than an uncapped one, so each budget class caches
// under its own key and a starved answer never masks an exact one.
// Deadlines are excluded: deadline-shaped results are refused by
// Cacheable.
func SolveCacheKey(p Problem, opts Options) string {
	p.Objective, p.MaxBuffers = MinBuffersNoise, nil
	return optionsKey("solve", p, opts, true)
}

// OptimizeCacheKey is the cache key for Optimize(ctx, p, opts). Unlike
// Solve, Optimize has no degradation ladder: resource caps can only turn
// success into an error, never change a successful answer, so they are
// excluded and all budget classes share one entry.
func OptimizeCacheKey(p Problem, opts Options) string {
	return optionsKey("optimize", p, opts, false)
}

func optionsKey(mode string, p Problem, opts Options, includeCaps bool) string {
	var a [256]byte
	b := append(a[:0], "buffopt.options.v1/"...)
	b = append(b, mode...)
	b = append(b, '/')
	b = append(b, p.CanonicalHash()...)
	b = enc.Bool(b, opts.SafePruning)
	b = enc.Bool(b, opts.Sizing != nil)
	if opts.Sizing != nil {
		b = enc.U64(b, uint64(len(opts.Sizing.Widths)))
		for _, w := range opts.Sizing.Widths {
			b = enc.F64(b, w)
		}
		b = enc.F64(b, opts.Sizing.Fringe)
	}
	b = enc.Bool(b, includeCaps)
	if includeCaps {
		var mc, mt, ms int
		if opts.Budget != nil {
			mc, mt, ms = opts.Budget.MaxCandidates, opts.Budget.MaxTreeNodes, opts.Budget.MaxSimSteps
		}
		b = enc.U64(b, uint64(int64(mc)))
		b = enc.U64(b, uint64(int64(mt)))
		b = enc.U64(b, uint64(int64(ms)))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
