// Package core implements the paper's contribution: the three buffer
// insertion algorithms for noise and delay optimization.
//
//   - Algorithm 1 (Algorithm1): optimal linear-time noise avoidance for
//     single-sink trees, driven by the Theorem 1 closed form.
//   - Algorithm 2 (Algorithm2): optimal quadratic-time noise avoidance for
//     multi-sink trees via bottom-up candidate propagation.
//   - Algorithm 3 (Optimize): Van Ginneken's slack-optimal dynamic program
//     extended with noise constraints, plus the Lillis buffer-count
//     extension used to solve Problem 3 (fewest buffers meeting both noise
//     and timing), and the DelayOpt baseline of Section V.
//
// All algorithms consume an rctree.Tree, a buffers.Library, and
// noise.Params, and produce a Solution: a (possibly augmented) copy of the
// tree plus a node → buffer assignment that the elmore and noise analyzers
// accept directly.
//
// The entry points to the Algorithm 3 family are Optimize (one objective,
// one call), Solve (the degradation ladder), and NewSession/Delta
// (incremental re-solves over an edit stream, reusing untouched
// subtrees).
package core

import (
	"fmt"
	"math"
)

// placementBackoff shrinks Theorem 1 maximal placements by a relative
// epsilon so that the exact noise analyzers, which re-derive the bound in a
// different summation order, never see a 1-ulp overshoot of the margin.
const placementBackoff = 1 - 1e-10

// MaxSafeLength solves Theorem 1: the maximum length l of a uniform wire,
// driven by a buffer with output resistance rb, such that no noise
// violation results. The wire has resistance r per unit length and injects
// coupling current i per unit length; the subtree hanging below the wire's
// far end contributes downstream current down and offers noise slack ns.
//
// The noise seen at the far end is
//
//	rb·(down + i·l) + r·l·(down + i·l/2)
//
// (driver term, eq. 9, plus the wire's π-model term, eq. 8). Requiring it
// to stay within ns gives the quadratic of eq. (15),
//
//	(r·i/2)·l² + (rb·i + r·down)·l + (rb·down − ns) ≤ 0,
//
// whose positive root is eq. (13)/(16). The constraint rb·down ≤ ns is
// required for any l ≥ 0 to exist; if it fails, a buffer should already
// have been inserted below (the "too late" condition of Section III-A) and
// MaxSafeLength returns an error.
//
// Degenerate cases: with i = 0 and down = 0 (or r = 0 and rb·... within
// slack) the wire can be arbitrarily long and the result is +Inf.
func MaxSafeLength(rb, r, i, down, ns float64) (float64, error) {
	if rb < 0 || r < 0 || i < 0 || down < 0 {
		return 0, fmt.Errorf("core: negative parameter in MaxSafeLength(rb=%g, r=%g, i=%g, down=%g, ns=%g)", rb, r, i, down, ns)
	}
	c0 := rb*down - ns
	if c0 > 0 {
		return 0, fmt.Errorf("core: too late to insert a buffer: rb·down = %g exceeds noise slack %g: %w",
			rb*down, ns, ErrNoiseUnfixable)
	}
	a := r * i / 2
	b := rb*i + r*down
	if a == 0 {
		if b == 0 {
			return math.Inf(1), nil // no length-dependent noise at all
		}
		return -c0 / b, nil
	}
	// Positive root of a·l² + b·l + c0 = 0 with a > 0, c0 ≤ 0.
	return (-b + math.Sqrt(b*b-4*a*c0)) / (2 * a), nil
}

// WireTopNoise returns the Devgan noise bound seen at the far end of a
// lumped wire (rw, iw) driven by a buffer of resistance rb placed at the
// wire's near (upstream) end, with downstream current down below the far
// end:
//
//	rb·(down + iw) + rw·(down + iw/2).
//
// Algorithms 1 and 2 compare this against the far end's noise slack to
// decide whether a buffer is needed on the wire at all (Step 3 of
// Algorithm 1).
func WireTopNoise(rb, rw, iw, down float64) float64 {
	return rb*(down+iw) + rw*(down+iw/2)
}

// RequiredSeparation solves eq. (17): the minimum center-to-center spacing
// d between a victim wire and a single aggressor such that the wire causes
// no noise violation, under the geometric coupling model λ(d) = beta/d.
//
// The wire has length l, resistance r and capacitance c per unit length,
// is driven by a gate with resistance rb, sees downstream current down and
// noise slack ns at its far end, and the aggressor switches with slope mu.
// An error is returned when even zero coupling violates the slack (the
// non-coupling noise rb·down + r·l·down already exceeds ns).
func RequiredSeparation(rb, r, c, mu, beta, down, ns, l float64) (float64, error) {
	if l < 0 || beta < 0 || mu < 0 || c < 0 {
		return 0, fmt.Errorf("core: negative parameter in RequiredSeparation")
	}
	budget := ns - rb*down - r*down*l
	if budget <= 0 {
		return 0, fmt.Errorf("core: no separation can fix the wire: non-coupling noise %g exceeds slack %g: %w",
			rb*down+r*down*l, ns, ErrNoiseUnfixable)
	}
	num := mu * beta * c * l * (r*l/2 + rb)
	if num == 0 {
		return 0, nil // no coupling at any distance
	}
	return num / budget, nil
}
