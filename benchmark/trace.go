package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span kinds. An op span covers one workload operation. A layer span is
// a call into one layer made inside an op, so it lies within its parent's
// interval. A replay span re-runs, after the op, the in-process
// equivalent of a step the op performed inside a replica the benchmark
// cannot see into; its time is subtracted from the op but it does not lie
// within it. A probe span times a layer the workload's ops never call, on
// a sample of the workload's inputs, and attributes nothing.
const (
	kindOp     = "op"
	kindLayer  = "layer"
	kindReplay = "replay"
	kindProbe  = "probe"
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and reads no clock, which is how untraced runs stay untraced.
// Every span is recorded from the loop's one goroutine.
type tracer struct {
	epoch  time.Time
	lastID int64
	spans  []span
	values map[string][]float64 // derived per-sample values, such as server overhead
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), values: map[string][]float64{}}
}

// now reads the tracer clock; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newOp allocates an op ID (0 on a nil tracer).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.lastID++
	return t.lastID
}

// op records op's own span, from start to now.
func (t *tracer) op(op int64, name string, start int64) {
	if t != nil {
		t.spans = append(t.spans, span{ID: op, Op: op, Name: name, Kind: kindOp, Start: start, End: t.now()})
	}
}

// span records, from start to now, a call made for op (0 for a probe,
// which serves no op).
func (t *tracer) span(op int64, name, kind string, start int64) {
	if t != nil {
		t.lastID++
		t.spans = append(t.spans, span{ID: t.lastID, Parent: op, Op: op, Name: name, Kind: kind, Start: start, End: t.now()})
	}
}

// value records one derived sample under name.
func (t *tracer) value(name string, v float64) {
	if t != nil {
		t.values[name] = append(t.values[name], v)
	}
}

// has reports whether any span named name was recorded.
func (t *tracer) has(name string) bool {
	for _, s := range t.spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// durations returns the sorted durations, in ns, of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	sort.Float64s(d)
	return d
}

// kindOf returns the kind of the spans named name.
func (t *tracer) kindOf(name string) string {
	for _, s := range t.spans {
		if s.Name == name {
			return s.Kind
		}
	}
	return ""
}

// opDurations returns the sorted durations, in ns, of every op span.
func (t *tracer) opDurations() []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Kind == kindOp {
			d = append(d, float64(s.dur()))
		}
	}
	sort.Float64s(d)
	return d
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	return len(t.spans)
}

// writeFile writes every span as a JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is the part of [start, end) that no child interval covers.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curLo, curHi, open = c[0], c[1], true
		case c[0] <= curHi:
			curHi = max(curHi, c[1])
		default:
			covered += curHi - curLo
			curLo, curHi = c[0], c[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return end - start - covered
}

// attribution sums, over every op span that has children, the op's
// duration and its unattributed time: the op's self time (its interval
// minus what its layer spans cover) minus the time of its replay spans,
// floored at zero. Ops without children are left out, so a sampled replay
// is judged only on the ops it replayed.
func (t *tracer) attribution() (unattributed, total int64) {
	layers := map[int64][][2]int64{}
	replay := map[int64]int64{}
	for _, s := range t.spans {
		switch s.Kind {
		case kindLayer:
			layers[s.Parent] = append(layers[s.Parent], [2]int64{s.Start, s.End})
		case kindReplay:
			replay[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.Kind != kindOp {
			continue
		}
		kids, hasLayers := layers[s.ID]
		rep, hasReplay := replay[s.ID]
		if !hasLayers && !hasReplay {
			continue
		}
		un := selfTime(s.Start, s.End, kids) - rep
		unattributed += max(0, un)
		total += s.dur()
	}
	return unattributed, total
}
