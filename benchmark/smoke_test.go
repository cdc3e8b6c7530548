package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke size, untraced and traced, in
// this process: every run must audit clean, report every metric of its
// kind, print a well-formed result line, and give the same answer digest
// traced as untraced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	start := time.Now()
	for _, w := range workloads {
		var digests []string
		for _, traced := range []bool{false, true} {
			res, _, err := runWorkload(config{workload: w.Name, seed: 5, seconds: 1, traced: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: no %s", w.Name, traced, m.Name)
				}
			}
			if !traced {
				for _, m := range defs {
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end %s = %g, want a positive value", w.Name, m.Name, v)
					}
				}
			}
			if traced && res.Metrics["trace.unattributed_share"].Value > 0.05 && (w.Name == "noise_batch" || w.Name == "huge_net") {
				t.Errorf("%s: %.3f of op time unattributed, want at most 0.05", w.Name, res.Metrics["trace.unattributed_share"].Value)
			}
			checkResultLine(t, res)
			digests = append(digests, res.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s untraced, %s traced", w.Name, digests[0], digests[1])
		}
	}
	t.Logf("smoke pass took %v", time.Since(start))
}

// checkResultLine checks printResult's last line: one JSON object with
// exactly correct, attempted, failed and metrics.
func checkResultLine(t *testing.T, res *Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line keys: %s", lines[len(lines)-1])
	}
}
