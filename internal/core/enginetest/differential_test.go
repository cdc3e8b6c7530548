package enginetest

import (
	"testing"
)

// TestEngineDifferential is the tentpole gate: over the 200-net
// stratified corpus, every registered row is run against the reference
// (classic merge, serial walk).
// Each net runs the delay objective — the Li–Shi fast merge's home turf —
// plus one profile from the round-robin ring, so the count-indexed,
// noise, safe-pruning, sizing, and min-buffer fallback paths are all
// differenced on every stratum. Exact engines must match the baseline's
// objective values bit for bit and carry independently re-verified
// placements; heuristics must be valid and never better.
//
// Short mode trims each stratum and runs the delay + round-robin pair on
// the trimmed prefix — still all four strata, so the quick gate keeps the
// size spread.
func TestEngineDifferential(t *testing.T) {
	perStratum := -1 // full stratum
	if testing.Short() {
		perStratum = 10
	}
	ring := profiles()
	for _, s := range strata() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			n := s.nets
			if perStratum > 0 && perStratum < n {
				n = perStratum
			}
			nets, lib, p := buildStratum(t, s, n)
			for i, tr := range nets {
				delay := ring[0]
				runEngines(t, delay.problem(tr, lib, p), delay, p)
				if pr := ring[i%len(ring)]; pr.name != delay.name {
					runEngines(t, pr.problem(tr, lib, p), pr, p)
				}
			}
		})
	}
}
