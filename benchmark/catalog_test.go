package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the description at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the code's
// catalog in step: same workloads, metrics, units, directions and bounds.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q/%q in BENCHMARK.json, %q/%q in the code", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the code", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) || (m.Bound != nil && *m.Bound != w.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestCatalogNames checks the naming rules results are filed under.
func TestCatalogNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (%q) breaks the naming rules", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	if _, ok := metricByName("setup_s"); !ok {
		t.Error("no setup_s metric")
	}
}
