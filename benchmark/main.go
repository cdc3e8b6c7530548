// Command benchmark is buffopt's performance benchmark: four fixed
// workloads (noise_batch, huge_net, fleet_serve, eco_edit), end-to-end
// metrics measured with tracing off, and per-layer metrics from a
// separate traced run. It is a module of its own; run.sh builds it from
// the repository's sources. See README.md for the metric catalog.
//
// Usage, from the repository root:
//
//	sh benchmark/run.sh [-seed n] [-seconds n]
//	    every workload, untraced then traced, each in a fresh process
//	sh benchmark/run.sh -workload <name> -seed <n> -seconds <n> -trace <0|1> [-spans file] [-out file]
//	    one run; the last line of standard output is the result as JSON
//	sh benchmark/run.sh compare <result files A> -- <result files B>
//	    compare two sets of -out records, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// defaultSeconds is the measured length of one run (BENCHMARK.json's
// run_seconds).
const defaultSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: every workload, each in its own process)")
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed: every input is generated from it (keep %d held out to confirm a claimed gain)", HeldOutSeed))
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured phase, s")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and its per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	out := fs.String("out", "", "write the full result record to this file as JSON (compare reads these)")
	smoke := fs.Bool("smoke", false, "tiny inputs and a sub-second measured phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *smoke, stdout, stderr)
	}
	if workloadByName(*workload) == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke}
	res, tr, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *spans != "" && tr != nil {
		if err := tr.writeFile(*spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(cfg config) (*Result, *tracer, error) {
	r := newRunner(cfg)
	if err := workloadByName(cfg.workload).run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res, err := r.result()
	return res, r.tr, err
}

// runAll runs every workload, untraced and then traced, each in a fresh
// process so peak RSS and GC state never carry over, and prints every
// metric. It fails if any run fails or any answer fails its audit.
func runAll(seed int64, seconds int, smoke bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "buffopt-benchmark-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	code := 0
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			out := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.Name, trace))
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", out}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", w.Name, trace, err)
				code = 1
				continue
			}
			var res Result
			if err := readJSON(out, &res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
				continue
			}
			printResult(stdout, &res)
			if !res.Correct {
				code = 1
			}
		}
	}
	fmt.Fprintf(stdout, "%s GOMAXPROCS=%d nproc=%d seed=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), seed)
	return code
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
