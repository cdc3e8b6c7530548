package report

import (
	"context"
	"strings"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

var p = noise.SectionV()

func buildNet(t *testing.T) *rctree.Tree {
	t.Helper()
	tr := rctree.New("demo", 250, 40e-12)
	v1, err := tr.AddInternal(tr.Root(), rctree.Wire{R: 160, C: 400e-15, Length: 2e-3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddSink(v1, rctree.Wire{R: 240, C: 600e-15, Length: 3e-3}, "far", 25e-15, 0.6e-9, 0.8); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddSink(v1, rctree.Wire{R: 80, C: 200e-15, Length: 1e-3}, "near", 15e-15, 1.2e-9, 0.8); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWriteUnbuffered(t *testing.T) {
	tr := buildNet(t)
	var sb strings.Builder
	if err := Write(&sb, tr, nil, Options{Params: p}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"net demo", "2 sinks", "0 buffers", "6.000 mm",
		"VIOLATIONS", "far", "near", "NOISY",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Worst sink first.
	if strings.Index(out, "far") > strings.Index(out, "near") {
		t.Errorf("sinks not sorted by slack:\n%s", out)
	}
}

func TestWriteBufferedWithBufferTable(t *testing.T) {
	tr := buildNet(t)
	work := tr.Clone()
	if _, err := segment.ByLength(work, 0.5e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := work.InsertBelow(work.Root()); err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), core.Problem{
		Tree: work, Library: buffers.DefaultLibrary(0.8), Params: p, Objective: core.MinBuffersNoise,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, res.Tree, res.Buffers, Options{Params: p, ShowBuffers: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "noise: clean") {
		t.Errorf("buffered report not clean:\n%s", out)
	}
	if !strings.Contains(out, "input noise (V)") {
		t.Errorf("buffer table missing:\n%s", out)
	}
	// Sinks limit.
	var limited strings.Builder
	if err := Write(&limited, res.Tree, res.Buffers, Options{Params: p, Sinks: 1}); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(limited.String(), "ok"); c > 2 {
		t.Errorf("sink limit ignored:\n%s", limited.String())
	}
}

func TestSummaryAndCompare(t *testing.T) {
	tr := buildNet(t)
	s := Summary(tr, nil, p)
	if !strings.Contains(s, "demo:") || !strings.Contains(s, "violations") {
		t.Errorf("summary = %q", s)
	}

	work := tr.Clone()
	if _, err := segment.ByLength(work, 0.5e-3); err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), core.Problem{
		Tree: work, Library: buffers.DefaultLibrary(0.8), Params: p, Objective: core.MinBuffersNoise,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Compare(&sb, tr, res.Tree, res.Buffers, p); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"before", "after", "max delay", "violations", "buffers"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare missing %q:\n%s", want, out)
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	tr := rctree.New("bad", 1, 0) // no sinks
	var sb strings.Builder
	if err := Write(&sb, tr, nil, Options{Params: p}); err == nil {
		t.Errorf("invalid tree accepted")
	}
}
