package main

import "testing"

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {40, 60}}, 70},
		{"overlapping children count once", [][2]int64{{10, 30}, {20, 50}}, 60},
		{"nested child", [][2]int64{{10, 50}, {20, 30}}, 60},
		{"clipped to the parent", [][2]int64{{-10, 10}, {90, 120}}, 80},
		{"outside the parent", [][2]int64{{100, 150}, {-50, 0}}, 100},
		{"covering the parent", [][2]int64{{0, 100}}, 0},
	} {
		if got := selfTime(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAttribution checks the unattributed share's accounting: layer
// spans are subtracted where they cover the op, replay spans by their
// duration, and ops without children are left out.
func TestAttribution(t *testing.T) {
	tr := newTracer()
	add := func(id, op int64, name, kind string, start, end int64) {
		parent := op
		if kind == kindOp {
			parent = 0
		}
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name, Kind: kind, Start: start, End: end})
	}
	// Op 1 (100 ns): two layers cover 90 ns of it.
	add(1, 1, "op", kindOp, 0, 100)
	add(10, 1, "netfmt.read", kindLayer, 0, 40)
	add(11, 1, "core.solve", kindLayer, 40, 90)
	// Op 2 (200 ns, a remote call): replays account for 150 ns.
	add(2, 2, "op", kindOp, 200, 400)
	add(12, 2, "core.solve", kindReplay, 500, 600)
	add(13, 2, "server.encode", kindReplay, 600, 650)
	// Op 3 has no children: not part of the attribution.
	add(3, 3, "op", kindOp, 700, 1700)
	// A probe attributes nothing.
	add(14, 0, "segment", kindProbe, 0, 1000)

	un, total := tr.attribution()
	if un != 10+50 || total != 300 {
		t.Errorf("attribution = %d unattributed of %d; want 60 of 300", un, total)
	}
	if d := tr.durations("core.solve"); len(d) != 2 || d[0] != 50 || d[1] != 100 {
		t.Errorf("durations(core.solve) = %v", d)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if tr.now() != 0 || tr.newOp() != 0 {
		t.Error("a nil tracer read the clock or allocated an op")
	}
	tr.op(1, "op", 0)
	tr.span(1, "x", kindLayer, 0)
	tr.value("x", 1)
}
