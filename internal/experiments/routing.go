package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/steiner"
)

// RoutingRow summarizes one topology generator across the sample.
type RoutingRow struct {
	Name string
	// Totals across the sample: routed wirelength (m), unbuffered worst
	// delay (s), buffers BuffOpt needed, post-BuffOpt worst delay (s).
	WirelengthMM float64
	BareDelayPS  float64
	Buffers      int
	FixedDelayPS float64
	Failures     int
}

// RoutingAblation compares the routing substrates — rectilinear MST,
// Prim–Dijkstra blend, iterated 1-Steiner — by what actually matters to
// this paper: how many buffers the noise fix needs and what delay
// results.
type RoutingAblation struct {
	Nets int
	Rows []RoutingRow
}

// RunRoutingAblation routes the same pin sets with each generator and
// runs the BuffOpt tool on each result.
func RunRoutingAblation(nets int) (RoutingAblation, error) {
	if nets <= 0 {
		nets = 30
	}
	rng := rand.New(rand.NewSource(8))
	tech := steiner.Tech{RPerLen: 80e3, CPerLen: 200e-12}
	params := noise.SectionV()
	lib := buffers.DefaultLibrary(0.8)

	pinSets := make([]steiner.Net, nets)
	for i := range pinSets {
		n := steiner.Net{
			Name:    fmt.Sprintf("abl%02d", i),
			Driver:  steiner.Point{},
			DriverR: 150 + 400*rng.Float64(),
			DriverT: 50e-12,
		}
		span := (2 + 4*rng.Float64()) * 1e-3
		for s := 0; s < 3+rng.Intn(6); s++ {
			n.Sinks = append(n.Sinks, steiner.Sink{
				Name:        fmt.Sprintf("s%d", s),
				At:          steiner.Point{X: rng.Float64() * span, Y: rng.Float64() * span},
				Cap:         (15 + 30*rng.Float64()) * 1e-15,
				RAT:         2e-9,
				NoiseMargin: 0.8,
			})
		}
		pinSets[i] = n
	}

	gens := []struct {
		name  string
		route func(steiner.Net) (*rctree.Tree, error)
	}{
		{"rect. MST", func(n steiner.Net) (*rctree.Tree, error) {
			return steiner.Route(n, tech, steiner.RectilinearMST)
		}},
		{"Prim-Dijkstra(.5)", func(n steiner.Net) (*rctree.Tree, error) {
			return steiner.RoutePrimDijkstra(n, tech, 0.5)
		}},
		{"1-Steiner", func(n steiner.Net) (*rctree.Tree, error) {
			return steiner.Route(n, tech, steiner.OneSteiner)
		}},
	}

	out := RoutingAblation{Nets: nets}
	for _, g := range gens {
		row := RoutingRow{Name: g.name}
		for _, pins := range pinSets {
			tr, err := g.route(pins)
			if err != nil {
				row.Failures++
				continue
			}
			row.WirelengthMM += tr.TotalWireLength() * 1e3
			row.BareDelayPS += elmore.Analyze(tr, nil).MaxDelay * 1e12

			seg := tr.Clone()
			if _, err := segment.ByLength(seg, 0.5e-3); err != nil {
				row.Failures++
				continue
			}
			if _, err := seg.InsertBelow(seg.Root()); err != nil {
				row.Failures++
				continue
			}
			res, err := core.Optimize(context.Background(), core.Problem{
				Tree: seg, Library: lib, Params: params, Objective: core.MinBuffersNoise,
			}, core.Options{})
			if err != nil {
				row.Failures++
				continue
			}
			row.Buffers += res.NumBuffers()
			row.FixedDelayPS += elmore.Analyze(res.Tree, res.Buffers).MaxDelay * 1e12
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the ablation.
func (a RoutingAblation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: routing substrate (%d pin sets, totals)\n", a.Nets)
	fmt.Fprintf(&b, "%-20s %-12s %-14s %-10s %-14s\n",
		"topology", "wire (mm)", "bare dly (ps)", "buffers", "fixed dly (ps)")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-20s %-12.2f %-14.0f %-10d %-14.0f",
			r.Name, r.WirelengthMM, r.BareDelayPS, r.Buffers, r.FixedDelayPS)
		if r.Failures > 0 {
			fmt.Fprintf(&b, " (%d failures)", r.Failures)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
