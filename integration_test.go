package buffopt_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/netfmt"
	"buffopt/internal/noise"
	"buffopt/internal/noisesim"
	"buffopt/internal/report"
	"buffopt/internal/segment"
)

// TestSampleNetEndToEnd exercises the full user-facing pipeline on the
// checked-in fixture: parse → segment → BuffOpt → analyze → simulate →
// report, asserting every stage's contract.
func TestSampleNetEndToEnd(t *testing.T) {
	f, err := os.Open("testdata/sample.net")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := netfmt.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	params := noise.SectionV()

	// The fixture is deliberately noisy.
	before := noise.Analyze(tr, nil, params)
	if before.Clean() {
		t.Fatalf("fixture has no violations; it no longer demonstrates anything")
	}

	work := tr.Clone()
	if _, err := segment.ByLength(work, 0.5e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := work.InsertBelow(work.Root()); err != nil {
		t.Fatal(err)
	}
	lib := buffers.DefaultLibrary(0.8)
	res, err := core.Optimize(context.Background(), core.Problem{
		Tree: work, Library: lib, Params: params, Objective: core.MinBuffersNoise,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Contracts: metric-clean, slack consistent, timing met, simulation
	// (both engines) clean.
	if !noise.Analyze(res.Tree, res.Buffers, params).Clean() {
		t.Errorf("metric violations remain")
	}
	an := elmore.Analyze(res.Tree, res.Buffers)
	if d := an.WorstSlack - res.Slack; d > 1e-15 || d < -1e-15 {
		t.Errorf("DP slack %g vs analyzer %g", res.Slack, an.WorstSlack)
	}
	if res.Slack < 0 {
		t.Errorf("timing not met: slack %g", res.Slack)
	}
	for _, sim := range []func() (*noisesim.Result, error){
		func() (*noisesim.Result, error) {
			return noisesim.Simulate(res.Tree, res.Buffers, noisesim.Options{Params: params})
		},
		func() (*noisesim.Result, error) {
			return noisesim.SimulateAWE(res.Tree, res.Buffers, noisesim.Options{Params: params})
		},
	} {
		r, err := sim()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Clean() {
			t.Errorf("simulation found violations: %+v", r.Violations)
		}
	}

	var sb strings.Builder
	if err := report.Write(&sb, res.Tree, res.Buffers, report.Options{Params: params, ShowBuffers: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "noise: clean") {
		t.Errorf("report does not show a clean net:\n%s", sb.String())
	}
}
