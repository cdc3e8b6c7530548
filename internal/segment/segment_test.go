package segment

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
)

func line(t *testing.T, length float64) *rctree.Tree {
	t.Helper()
	tr := rctree.New("line", 100, 0)
	if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 10 * length, C: 2 * length, Length: length}, "s", 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	return tr
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestByLength(t *testing.T) {
	tr := line(t, 10)
	if got := Size(tr, 3); got != 5 {
		t.Errorf("Size = %g, want 5", got)
	}
	added, err := ByLength(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10/3) = 4 pieces → 3 new nodes.
	if added != 3 {
		t.Errorf("added = %d, want 3", added)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Preorder() {
		if v == tr.Root() {
			continue
		}
		w := tr.Node(v).Wire
		if w.Length > 3+1e-12 {
			t.Errorf("piece longer than max: %g", w.Length)
		}
		if !approx(w.Length, 2.5) {
			t.Errorf("pieces should be equal (2.5): %g", w.Length)
		}
	}
	if got := tr.TotalWireLength(); !approx(got, 10) {
		t.Errorf("length changed: %g", got)
	}
	if got := tr.TotalWireCap(); !approx(got, 20) {
		t.Errorf("capacitance changed: %g", got)
	}
	// Short wires untouched.
	tr2 := line(t, 2)
	added, err = ByLength(tr2, 3)
	if err != nil || added != 0 {
		t.Errorf("short wire split: added=%d err=%v", added, err)
	}
	if _, err := ByLength(tr2, 0); err == nil {
		t.Errorf("zero max length accepted")
	}
	if _, err := ByLength(tr2, math.NaN()); err == nil {
		t.Errorf("NaN max length accepted")
	}
}

// TestByLengthRefusesHugeSplits: a max length so small that the segmented
// tree would pass MaxNodes is refused before any split, including a
// subnormal one whose piece count overflows to +Inf.
func TestByLengthRefusesHugeSplits(t *testing.T) {
	for _, maxLen := range []float64{5e-324, 1e-12} {
		tr := line(t, 1e-3)
		n := tr.Len()
		if _, err := ByLength(tr, maxLen); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("ByLength(%g): err = %v, want ErrBudgetExceeded", maxLen, err)
		}
		if tr.Len() != n {
			t.Fatalf("ByLength(%g) grew the tree to %d nodes", maxLen, tr.Len())
		}
	}
}

func TestByCount(t *testing.T) {
	tr := line(t, 6)
	added, err := ByCount(tr, 4)
	if err != nil || added != 3 {
		t.Fatalf("added=%d err=%v", added, err)
	}
	n := 0
	for _, v := range tr.Preorder() {
		if v == tr.Root() {
			continue
		}
		n++
		if !approx(tr.Node(v).Wire.Length, 1.5) {
			t.Errorf("piece length %g, want 1.5", tr.Node(v).Wire.Length)
		}
	}
	if n != 4 {
		t.Errorf("pieces = %d, want 4", n)
	}
	if _, err := ByCount(tr, 0); err == nil {
		t.Errorf("zero count accepted")
	}
}

func TestByCountPreservesTotals(t *testing.T) {
	f := func(lenRaw, kRaw uint8) bool {
		length := 1 + float64(lenRaw%50)
		k := 1 + int(kRaw%9)
		tr := rctree.New("x", 1, 0)
		if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 3 * length, C: 7 * length, Length: length}, "s", 1, 0, 1); err != nil {
			return false
		}
		if _, err := ByCount(tr, k); err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		return approx(tr.TotalWireLength(), length) &&
			approx(tr.TotalWireCap(), 7*length) &&
			tr.Len() == 2+k-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestApplyAggressorsFig2(t *testing.T) {
	// A 9 mm wire with two aggressors: A over [1, 5] mm, B over [3, 7] mm
	// (distances from the driver end). Expected pieces: [0,1] none,
	// [1,3] A, [3,5] A+B, [5,7] B, [7,9] none — five pieces, like the
	// overlapping pattern of Fig. 2.
	tr := line(t, 9)
	sink := tr.Sinks()[0]
	chain, err := ApplyAggressors(tr, sink, []Span{
		{From: 1, To: 5, Ratio: 0.5, Slope: 2},
		{From: 3, To: 7, Ratio: 0.25, Slope: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(chain) != 5 {
		t.Fatalf("pieces = %d, want 5", len(chain))
	}
	wantLens := []float64{1, 2, 2, 2, 2}
	wantAggr := [][]rctree.Coupling{
		{},
		{{Ratio: 0.5, Slope: 2}},
		{{Ratio: 0.5, Slope: 2}, {Ratio: 0.25, Slope: 4}},
		{{Ratio: 0.25, Slope: 4}},
		{},
	}
	pos := 0.0
	for i, id := range chain {
		w := tr.Node(id).Wire
		if !approx(w.Length, wantLens[i]) {
			t.Errorf("piece %d length %g, want %g", i, w.Length, wantLens[i])
		}
		if len(w.Aggressors) != len(wantAggr[i]) {
			t.Errorf("piece %d has %d aggressors, want %d", i, len(w.Aggressors), len(wantAggr[i]))
			continue
		}
		for j := range wantAggr[i] {
			if w.Aggressors[j] != wantAggr[i][j] {
				t.Errorf("piece %d aggressor %d = %+v, want %+v", i, j, w.Aggressors[j], wantAggr[i][j])
			}
		}
		pos += w.Length
	}
	if !approx(pos, 9) {
		t.Errorf("total length %g", pos)
	}

	// The noise package must see exactly the explicit currents: piece 2
	// injects (0.5·2 + 0.25·4)·C = 2·C with C = 2 mm × 2 F/len-unit.
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	iw := p.WireCurrent(tr.Node(chain[2]).Wire)
	if !approx(iw, 2*4.0) {
		t.Errorf("piece 2 current %g, want 8", iw)
	}
	// Uncovered pieces inject nothing even in estimation mode.
	if got := p.WireCurrent(tr.Node(chain[0]).Wire); got != 0 {
		t.Errorf("uncovered piece current %g, want 0", got)
	}
}

func TestApplyAggressorsWholeWire(t *testing.T) {
	tr := line(t, 4)
	sink := tr.Sinks()[0]
	chain, err := ApplyAggressors(tr, sink, []Span{{From: 0, To: 4, Ratio: 0.7, Slope: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0] != sink {
		t.Errorf("whole-wire span should not split: %v", chain)
	}
	if got := tr.Node(sink).Wire.Aggressors; len(got) != 1 {
		t.Errorf("aggressors = %v", got)
	}
}

func TestApplyAggressorsErrors(t *testing.T) {
	tr := line(t, 4)
	sink := tr.Sinks()[0]
	if _, err := ApplyAggressors(tr, tr.Root(), nil); err == nil {
		t.Errorf("root accepted")
	}
	if _, err := ApplyAggressors(tr, sink, []Span{{From: 2, To: 1, Ratio: 0.5, Slope: 1}}); err == nil {
		t.Errorf("inverted span accepted")
	}
	if _, err := ApplyAggressors(tr, sink, []Span{{From: 0, To: 9, Ratio: 0.5, Slope: 1}}); err == nil {
		t.Errorf("overlong span accepted")
	}
	zero := rctree.New("z", 1, 0)
	zsink, _ := zero.AddSink(zero.Root(), rctree.Wire{}, "s", 1, 0, 1)
	if _, err := ApplyAggressors(zero, zsink, []Span{{From: 0, To: 0.5, Ratio: 0.5, Slope: 1}}); err == nil {
		t.Errorf("zero-length wire accepted")
	}
}

func TestSegmentTreeWide(t *testing.T) {
	// Segmenting must handle every wire of a branched tree.
	tr := rctree.New("y", 1, 0)
	v, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 4, C: 4, Length: 4}, true)
	_, _ = tr.AddSink(v, rctree.Wire{R: 6, C: 6, Length: 6}, "a", 1, 0, 1)
	_, _ = tr.AddSink(v, rctree.Wire{R: 2, C: 2, Length: 2}, "b", 1, 0, 1)
	added, err := ByLength(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 4 → 2 pieces (+1), 6 → 3 pieces (+2), 2 → 1 piece (+0).
	if added != 3 {
		t.Errorf("added = %d, want 3", added)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.TotalWireLength(); !approx(got, 12) {
		t.Errorf("total length %g", got)
	}
}
