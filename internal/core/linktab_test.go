package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/netgen"
	"buffopt/internal/segment"
	"buffopt/internal/steiner"
)

// Tests of a session's link table: the rows its memo entries' solutions
// live in, appended to by every Delta and compacted between them.

// memoReach counts the rows of s's link table that its resident memo
// entries reach.
func memoReach(s *Session) int {
	var seen [maxVGWorkers][]bool
	for k := range s.tab.segs {
		seen[k] = make([]bool, s.tab.segs[k].n)
	}
	n := 0
	var stack []int32
	for _, e := range s.memo.Entries() {
		for _, c := range e.Val.cands {
			for stack = append(stack[:0], c.sol); len(stack) > 0; {
				ref := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if ref == 0 || seen[ref>>segShift][ref&segRows-1] {
					continue
				}
				seen[ref>>segShift][ref&segRows-1] = true
				n++
				r := s.tab.row(ref)
				stack = append(stack, r.prev[0], r.prev[1])
			}
		}
	}
	return n
}

// tableBytes is a link table's resident size: its segments' chunks.
func tableBytes(t *linkTab) int64 {
	n := 0
	for i := range t.segs {
		n += len(t.segs[i].chunks)
	}
	return int64(n) * chunkRows * 16
}

// ecoEdit draws the next edit of a session's stream: mostly set-cap,
// set-rat and set-wire, with a graft or a prune one time in twenty-odd —
// a graft while the tree has at most size nodes, a prune of a few nodes
// while it has more, so the tree keeps its size over a long stream.
func ecoEdit(s *Session, rng *rand.Rand, size int) Edit {
	for {
		tr := s.Tree()
		e, ok := randomEdit(tr, rng)
		switch {
		case !ok:
		case e.Op != EditGraft && e.Op != EditPrune:
			return e
		case rng.Intn(4) != 0:
		case e.Op == EditGraft && tr.Len() <= size:
			return e
		case e.Op == EditPrune && tr.Len() > size && len(tr.Subtree(e.Node)) <= 5:
			return e
		}
	}
}

// TestDeltaLinkTable drives one session through 2,000 edits, two per
// Delta unless the first renumbers the tree, on a byte-bounded memo,
// alternating serial and forced-parallel runs and sizing every fifth
// run, so entries are evicted, relocated after prunes and stored from
// several table segments, and compaction runs many times. After every
// Delta the table holds at most twice the rows the memo reaches plus
// linkSlack, the rows attributed to resident entries never exceed the
// rows they reach, and the answer is bit-identical to a from-scratch
// Optimize of the edited tree.
func TestDeltaLinkTable(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 12)
	p := Problem{Tree: nets[0], Library: lib, Params: params, Objective: MaxSlackNoise}
	s, err := NewSession(p, SessionConfig{MemoBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	compactions, last := 0, 0
	for step, edits := 0, 0; edits < 2000; step++ {
		opts := Options{dp: dpOverride{workers: 1 + 3*(step%2)}}
		if step%5 == 4 {
			opts.Sizing = &Sizing{Widths: []float64{1, 2}}
		}
		batch := []Edit{ecoEdit(s, rng, p.Tree.Len())}
		if op := batch[0].Op; op != EditGraft && op != EditPrune {
			// The first edit keeps every node id, so the second may be
			// drawn against the same tree.
			batch = append(batch, ecoEdit(s, rng, p.Tree.Len()))
		}
		edits += len(batch)
		got, err := Delta(context.Background(), s, batch, opts)
		if err != nil {
			t.Fatalf("step %d (%v): Delta: %v", step, batch, err)
		}
		rows, reach := s.tab.rows(), memoReach(s)
		if rows > 2*reach+linkSlack {
			t.Fatalf("step %d: the link table holds %d rows, the memo reaches %d", step, rows, reach)
		}
		if live := s.live.Load(); live > int64(reach) {
			t.Fatalf("step %d: %d rows attributed to resident entries, which reach %d", step, live, reach)
		}
		if rows < last {
			compactions++
		}
		last = rows
		ref := p
		ref.Tree = s.Tree()
		want, err := Optimize(context.Background(), ref, opts)
		if err != nil {
			t.Fatalf("step %d: Optimize: %v", step, err)
		}
		if err := resultsEqual(got.Result, want); err != nil {
			t.Fatalf("step %d (%v): delta diverged from scratch: %v", step, batch, err)
		}
	}
	if compactions < 3 {
		t.Fatalf("the table was compacted %d times in 2,000 edits", compactions)
	}
	if st := s.MemoStats(); st.Evicted == 0 {
		t.Fatal("the memo evicted nothing; the stream never exercised a bounded memo")
	}
}

// TestDeltaMemoFootprint checks the memo's byte accounting against what
// a session holds. On an eco_edit-like stream — a routed 150-sink net
// segmented at 0.25 mm, max-slack-noise, set-cap, set-rat and set-wire
// edits that never repeat a value, serial and parallel runs — with the
// memo full to its byte bound, the resident candidates (64 bytes each)
// and the link table's chunks stay within half of MemoBytes, the
// multiple subtreeMemoSize is derived for.
func TestDeltaMemoFootprint(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(44))
	tech := netgen.SectionVTech()
	net := steiner.Net{Name: "eco", DriverR: 250, DriverT: 50e-12}
	for i := 0; i < 150; i++ {
		net.Sinks = append(net.Sinks, steiner.Sink{
			Name: fmt.Sprintf("s%d", i),
			At:   steiner.Point{X: (rng.Float64() - 0.5) * 9e-3, Y: (rng.Float64() - 0.5) * 9e-3},
			Cap:  (10 + 40*rng.Float64()) * 1e-15, RAT: 2.5e-9, NoiseMargin: tech.NoiseMargin,
		})
	}
	tr, err := steiner.Route(net, tech.Wire, steiner.RectilinearMST)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := segment.ByLength(tr, 0.25e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.InsertBelow(tr.Root()); err != nil {
		t.Fatal(err)
	}
	tr.Binarize()
	p := Problem{Tree: tr, Library: buffers.DefaultLibrary(tech.NoiseMargin), Params: tech.Noise, Objective: MaxSlackNoise}
	s, err := NewSession(p, SessionConfig{MemoBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sinks, checked := tr.Sinks(), 0
	for k := 0; k < 300; k++ {
		f := 1 + 2e-6*float64(k+1)
		v := sinks[rng.Intn(len(sinks))]
		e := Edit{Op: EditSetCap, Node: v, Value: tr.Node(v).Cap * f}
		switch k % 3 {
		case 1:
			e = Edit{Op: EditSetRAT, Node: v, Value: tr.Node(v).RAT * f}
		case 2:
			e.Op, e.Node, e.Wire = EditSetWire, v, tr.Node(v).Wire
			e.Wire.R *= f
		}
		if _, err := Delta(context.Background(), s, []Edit{e}, Options{dp: dpOverride{workers: 1 + k%2}}); err != nil {
			t.Fatal(err)
		}
		if s.MemoStats().Evicted == 0 {
			continue // not full yet
		}
		cands := 0
		for _, e := range s.memo.Entries() {
			cands += len(e.Val.cands)
		}
		if held, charged := int64(cands)*64+tableBytes(&s.tab), s.MemoBytes(); 2*held > charged {
			t.Fatalf("edit %d: %d candidates and a %d-byte link table hold %d bytes, over half the %d the memo is charged",
				k, cands, tableBytes(&s.tab), held, charged)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("the memo was full after only %d of 300 edits", checked)
	}
}
