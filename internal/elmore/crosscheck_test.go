package elmore_test

import (
	"math"
	"math/rand"
	"testing"

	"buffopt/internal/circuit"
	"buffopt/internal/elmore"
	"buffopt/internal/rctree"
	"buffopt/internal/testutil"
)

// The delay-model cross-checks: the Elmore analyzer against the circuit
// package's AWE moments and transient simulator, on the same random RC
// trees. Each tree becomes a netlist driven by a unit step behind the
// driver resistance, with every wire as a π-model (half its capacitance
// at each end), the model the analyzer assumes.

// netlist builds tr's circuit and returns it with the circuit node of
// every tree node. The source's rise time is negligible next to tau.
func netlist(t *testing.T, tr *rctree.Tree, tau float64) (*circuit.Netlist, []int) {
	t.Helper()
	nl := circuit.New()
	nodes := make([]int, tr.Len())
	src := nl.Node("vsrc")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nl.AddV(src, circuit.Ground, circuit.Ramp{V1: 1, Rise: tau / 1e4}))
	for _, v := range tr.Preorder() {
		nodes[v] = nl.Node("")
		node := tr.Node(v)
		if v == tr.Root() {
			must(nl.AddR(src, nodes[v], tr.DriverResistance))
		} else {
			must(nl.AddR(nodes[node.Parent], nodes[v], node.Wire.R))
			must(nl.AddC(nodes[node.Parent], circuit.Ground, node.Wire.C/2))
			must(nl.AddC(nodes[v], circuit.Ground, node.Wire.C/2))
		}
		if node.Kind == rctree.Sink {
			must(nl.AddC(nodes[v], circuit.Ground, node.Cap))
		}
	}
	return nl, nodes
}

// elmoreDelay is the analyzer's delay from the driver's input to s,
// without the driver's intrinsic delay (which the circuit has no
// counterpart for).
func elmoreDelay(tr *rctree.Tree, s rctree.NodeID) float64 {
	return elmore.Analyze(tr, nil).Arrival[s] - tr.DriverDelay
}

// simDelay50 measures the 50% crossing at sink s of tr's simulated step
// response; tau sets the time scale.
func simDelay50(t *testing.T, tr *rctree.Tree, s rctree.NodeID, tau float64) float64 {
	t.Helper()
	nl, nodes := netlist(t, tr, tau)
	res, err := circuit.Transient(nl, circuit.TranOptions{
		Step: tau / 2000, Duration: 10 * tau, Probes: []int{nodes[s]},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Waves[nodes[s]] {
		if v >= 0.5 {
			return res.Times[i]
		}
	}
	t.Fatalf("sink %d never crossed 50%%", s)
	return 0
}

// twoPoleDelay50 is the 50% crossing of the AWE two-pole model of the
// transfer to sink s, or false when the model cannot be fitted.
func twoPoleDelay50(t *testing.T, tr *rctree.Tree, s rctree.NodeID, tau float64) (float64, bool) {
	t.Helper()
	nl, nodes := netlist(t, tr, tau)
	m, err := nl.Moments(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := circuit.ReduceTransfer(m, nodes[s])
	if err != nil || !r.Stable {
		return 0, false
	}
	half := r.M0 / 2
	horizon := 20 * math.Max(-1/r.P1, -1/r.P2)
	const steps = 4000
	lo := 0.0
	for i := 1; i <= steps; i++ {
		hi := horizon * float64(i) / steps
		if r.Step(hi) < half {
			lo = hi
			continue
		}
		for k := 0; k < 60; k++ {
			if mid := (lo + hi) / 2; r.Step(mid) < half {
				lo = mid
			} else {
				hi = mid
			}
		}
		return hi, true
	}
	return 0, false
}

// TestFirstMomentIsElmore: the Elmore delay to every sink equals −m1, the
// first moment of the circuit's transfer function, on random trees; and
// the moments alternate in sign (m1 < 0, m2 > 0, m3 < 0), as they must
// for an RC tree.
func TestFirstMomentIsElmore(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 8, MaxSinks: 5})
		nl, nodes := netlist(t, tr, 1)
		m, err := nl.Moments(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tr.Sinks() {
			n := nodes[s]
			got, want := -m[1][n], elmoreDelay(tr, s)
			if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
				t.Fatalf("trial %d sink %d: −m1 = %g, Elmore %g", trial, s, got, want)
			}
			if !(m[1][n] < 0 && m[2][n] > 0 && m[3][n] < 0) {
				t.Fatalf("trial %d sink %d: moments %g, %g, %g do not alternate",
					trial, s, m[1][n], m[2][n], m[3][n])
			}
		}
	}
}

// TestTwoPoleBeatsElmoreAgainstSimulation: on RC trees the Elmore delay
// bounds the simulated 50% delay from above (within the simulator's 2%
// time-step error), and the two-pole AWE delay tracks the simulation
// more closely than Elmore does on most sinks.
func TestTwoPoleBeatsElmoreAgainstSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	wins, trials := 0, 0
	for trial := 0; trial < 12; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 5, MaxSinks: 3})
		sinks := tr.Sinks()
		s := sinks[rng.Intn(len(sinks))]
		elm := elmoreDelay(tr, s)
		if elm <= 0 {
			continue
		}
		sim := simDelay50(t, tr, s, elm)
		if sim > elm*(1+0.02) {
			t.Errorf("trial %d: simulated 50%% delay %g exceeds Elmore %g", trial, sim, elm)
		}
		d2, ok := twoPoleDelay50(t, tr, s, elm)
		if !ok {
			continue
		}
		trials++
		if math.Abs(d2-sim) <= math.Abs(elm-sim) {
			wins++
		}
	}
	if trials < 5 {
		t.Fatalf("only %d usable trials", trials)
	}
	t.Logf("two-pole beat Elmore %d/%d times", wins, trials)
	if wins*2 < trials {
		t.Errorf("two-pole beat Elmore only %d/%d times", wins, trials)
	}
}
