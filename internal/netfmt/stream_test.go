package netfmt

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"buffopt/internal/guard"
	"buffopt/internal/netgen"
	"buffopt/internal/rctree"
)

// endlessNodes serves a net header and then internal-node lines, each
// hung below the last, without end, counting the bytes it serves.
type endlessNodes struct {
	pending []byte
	next    int
	served  int
}

func (r *endlessNodes) Read(p []byte) (int, error) {
	if len(r.pending) == 0 {
		if r.next == 0 {
			r.pending = append(r.pending, "net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n"...)
		} else {
			r.pending = append(r.pending, "node "...)
			r.pending = strconv.AppendInt(r.pending, int64(r.next), 10)
			r.pending = append(r.pending, " internal parent="...)
			r.pending = strconv.AppendInt(r.pending, int64(r.next-1), 10)
			r.pending = append(r.pending, " wire=1,1,1 x=0 y=0 bufok=1\n"...)
		}
		r.next++
	}
	n := copy(p, r.pending)
	r.pending = r.pending[:copy(r.pending, r.pending[n:])]
	r.served += n
	return n, nil
}

// endlessLine serves one line that never ends.
type endlessLine struct{ served int }

func (r *endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	r.served += len(p)
	return len(p), nil
}

// TestReadStreamBounded: the reader holds a line at a time, so a stream
// that never ends is refused after a bounded number of bytes — at the
// node limit for endless node lines, at the line cap for an endless line.
func TestReadStreamBounded(t *testing.T) {
	nodes := &endlessNodes{}
	_, err := ReadLimited(nodes, Limits{MaxNodes: 1000})
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("endless node lines: err = %v, want ErrBudgetExceeded", err)
	}
	// 1000 lines of ~60 bytes, plus one read buffer of look-ahead.
	if nodes.served > 1000*64+64<<10 {
		t.Errorf("endless node lines: read %d bytes before refusing", nodes.served)
	}

	line := &endlessLine{}
	_, err = Read(line)
	if !errors.Is(err, guard.ErrInvalidInput) {
		t.Fatalf("endless line: err = %v, want ErrInvalidInput", err)
	}
	if line.served > maxLine+64<<10 {
		t.Errorf("endless line: read %d bytes before refusing", line.served)
	}
}

// TestReadLineCap pins the line cap at its edge: a line of maxLine-1
// bytes before its '\n' (or the end of the stream) is read, one of
// maxLine bytes is refused, as the reference reader does.
func TestReadLineCap(t *testing.T) {
	head := "net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n"
	sink := "node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s pad="
	for _, tc := range []struct {
		n      int
		suffix string
		ok     bool
	}{
		{maxLine - 1, "\nend\n", true},
		{maxLine, "\nend\n", false},
		{maxLine - 1, "\r\nend\n", false}, // the '\r' counts
		{maxLine - 4, "\nend", true},      // end as the unterminated last line
	} {
		in := head + sink + strings.Repeat("p", tc.n-len(sink)) + tc.suffix
		_, err := matchReference(t, []byte(in), Limits{})
		if (err == nil) != tc.ok {
			t.Errorf("line of %d bytes + %q: err = %v, want ok %v", tc.n, tc.suffix, err, tc.ok)
		}
	}
	last := head + sink + "s\nend" + strings.Repeat(" ", maxLine-3)
	if _, err := matchReference(t, []byte(last), Limits{}); err == nil {
		t.Errorf("an unterminated last line of maxLine bytes was read")
	}
}

// suiteText renders nets of the Section V suite as netfmt text.
func suiteText(tb testing.TB, seed int64, n int) ([]string, []*rctree.Tree) {
	tb.Helper()
	s, err := netgen.Generate(netgen.Config{Seed: seed, NumNets: n})
	if err != nil {
		tb.Fatal(err)
	}
	texts := make([]string, len(s.Nets))
	for i, tr := range s.Nets {
		var sb strings.Builder
		if err := Write(&sb, tr); err != nil {
			tb.Fatal(err)
		}
		texts[i] = sb.String()
	}
	return texts, s.Nets
}

// TestReadAllocBudget pins the reader's allocations on suite nets to
// what the tree itself needs: its nodes and child lists, one string per
// sink name, and a few more for the tree, the net name and Validate. A
// per-line string, field slice or key map would overrun it several
// times over.
func TestReadAllocBudget(t *testing.T) {
	texts, nets := suiteText(t, 1, 20)
	var sr strings.Reader
	for i, text := range texts {
		budget := nets[i].Len() + nets[i].NumSinks() + 16
		got := testing.AllocsPerRun(20, func() {
			sr.Reset(text)
			if _, err := Read(&sr); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(budget) {
			t.Errorf("net %d (%d nodes, %d sinks): %v allocations, budget %d",
				i, nets[i].Len(), nets[i].NumSinks(), got, budget)
		}
	}
}

// TestReadNamesNotAliased: the net and sink names of a tree are copies,
// so reading another net through the pooled buffer leaves them as read.
func TestReadNamesNotAliased(t *testing.T) {
	net := func(name, sinkName string) string {
		return "net " + name + "\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=" + sinkName + "\nend\n"
	}
	a, err := Read(strings.NewReader(net("alpha", "north")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := Read(strings.NewReader(net("bravo", "south"))); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Node(0).Name; got != "alpha" {
		t.Errorf("net name = %q after reading another net, want alpha", got)
	}
	if got := a.Node(1).Name; got != "north" {
		t.Errorf("sink name = %q after reading another net, want north", got)
	}
}

// BenchmarkRead reads the Section V suite's nets in turn, with the
// reference reader alongside for comparison.
func BenchmarkRead(b *testing.B) {
	texts, _ := suiteText(b, 1, 500)
	var size int
	for _, text := range texts {
		size += len(text)
	}
	for _, bc := range []struct {
		name string
		read func(*strings.Reader) error
	}{
		{"stream", func(r *strings.Reader) error { _, err := Read(r); return err }},
		{"reference", func(r *strings.Reader) error { _, err := readReference(r, Limits{}); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size / len(texts)))
			var sr strings.Reader
			for i := 0; i < b.N; i++ {
				sr.Reset(texts[i%len(texts)])
				if err := bc.read(&sr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
