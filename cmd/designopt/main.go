// Command designopt runs the whole-design flow of Section V: read every
// net of a design, repair noise and timing with the BuffOpt tool in
// parallel, write the buffered nets, and print a design-level summary —
// the batch counterpart of cmd/buffopt.
//
// Usage:
//
//	designopt -in nets/ [-out buffered/] [-seglen 0.5e-3] [-lambda 0.7]
//	          [-rise 0.25e-9] [-vdd 1.8] [-bufnm 0.8] [-workers N] [-sizing]
//	          [-timeout 5s] [-max-cands N]
//
// Each net is solved through core.Solve's degradation ladder: -timeout
// bounds each individual net (not the whole design), -max-cands caps the
// DP candidate lists, and a net that exhausts its budget degrades to a
// cheaper tier instead of failing the batch. Workers are panic-isolated:
// a crash on one net is reported as that net's failure, not a process
// abort. Ctrl-C cancels the remaining nets cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
	"buffopt/internal/report"
	"buffopt/internal/segment"
)

// config carries the parsed command line.
type config struct {
	in, out           string
	segLen            float64
	lambda, rise, vdd float64
	margin            float64
	workers           int
	sizing, verbose   bool
	timeout           time.Duration // per net; 0 disables
	maxCands          int

	metrics    string // write an obs snapshot here on exit
	pprofAddr  string // serve net/http/pprof on this address
	cpuprofile string
	memprofile string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.in, "in", "", "input directory of .net files (required)")
	flag.StringVar(&cfg.out, "out", "", "output directory for buffered nets (optional)")
	flag.Float64Var(&cfg.segLen, "seglen", 0.5e-3, "wire segmenting length, m")
	flag.Float64Var(&cfg.lambda, "lambda", 0.7, "coupling ratio λ")
	flag.Float64Var(&cfg.rise, "rise", 0.25e-9, "aggressor rise time, s")
	flag.Float64Var(&cfg.vdd, "vdd", 1.8, "supply voltage, V")
	flag.Float64Var(&cfg.margin, "bufnm", 0.8, "buffer noise margin, V")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "parallel workers")
	flag.BoolVar(&cfg.sizing, "sizing", false, "enable simultaneous wire sizing (widths 1, 2, 4)")
	flag.BoolVar(&cfg.verbose, "v", false, "print one summary line per net")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock budget per net (0 disables)")
	flag.IntVar(&cfg.maxCands, "max-cands", 0, "cap on DP candidate-list size per net (0 disables)")
	flag.StringVar(&cfg.metrics, "metrics", "", "write a JSON metrics snapshot to this file on exit")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if cfg.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopObs, err := obs.Start(obs.StartOptions{
		Verbose:        cfg.verbose,
		MetricsPath:    cfg.metrics,
		PprofAddr:      cfg.pprofAddr,
		CPUProfilePath: cfg.cpuprofile,
		MemProfilePath: cfg.memprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "designopt:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runErr := run(ctx, cfg)
	if err := stopObs(); err != nil {
		fmt.Fprintln(os.Stderr, "designopt: telemetry:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "designopt:", runErr)
		os.Exit(guard.ExitCode(runErr))
	}
}

type result struct {
	name     string
	buffers  int
	fixed    bool
	wasBad   bool
	tier     core.Tier
	degraded bool
	tierErrs []*core.TierError
	err      error
	summary  string
}

func run(ctx context.Context, cfg config) error {
	paths, err := filepath.Glob(filepath.Join(cfg.in, "*.net"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .net files in %s", cfg.in)
	}
	sort.Strings(paths)
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
	}

	params := noise.Params{CouplingRatio: cfg.lambda, Slope: cfg.vdd / cfg.rise}
	lib := buffers.DefaultLibrary(cfg.margin)
	var opts core.Options
	if cfg.sizing {
		opts.Sizing = &core.Sizing{Widths: []float64{1, 2, 4}}
	}

	start := time.Now()
	results := make([]result, len(paths))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, cfg.workers))
	for i, path := range paths {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, path string) {
			defer wg.Done()
			defer func() { <-sem }()
			name := filepath.Base(path)
			if ctx.Err() != nil {
				results[i] = result{name: name, err: fmt.Errorf("%w: %w", guard.ErrCanceled, ctx.Err())}
				return
			}
			// Panic isolation: one crashing net becomes that net's
			// failure line, not a batch abort.
			var r result
			if perr := guard.Safe("designopt "+name, func() error {
				r = optimizeOne(ctx, path, cfg, params, lib, opts)
				return nil
			}); perr != nil {
				r = result{name: name, err: perr}
			}
			results[i] = r
		}(i, path)
	}
	wg.Wait()
	elapsed := time.Since(start)

	totalBuffers, bad, fixed, failed := 0, 0, 0, 0
	tierCount := map[core.Tier]int{}
	causes := map[string]int{}
	for _, r := range results {
		if cfg.verbose && r.err == nil {
			fmt.Println(r.summary)
			for _, te := range r.tierErrs {
				fmt.Printf("  %s: %v\n", r.name, te)
			}
		}
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "  %s: %v\n", r.name, r.err)
			continue
		}
		tierCount[r.tier]++
		for _, te := range r.tierErrs {
			causes[guard.Class(te.Err)]++
		}
		totalBuffers += r.buffers
		if r.wasBad {
			bad++
			if r.fixed {
				fixed++
			}
		}
	}
	fmt.Printf("design: %d nets, %d with noise violations, %d fixed, %d buffers inserted, %d failures, %.2fs\n",
		len(paths), bad, fixed, totalBuffers, failed, elapsed.Seconds())
	printTiers(tierCount, causes)
	if cerr := ctx.Err(); cerr != nil && !errors.Is(cerr, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", guard.ErrCanceled, cerr)
	}
	if fixed < bad {
		return fmt.Errorf("%d nets could not be fixed", bad-fixed)
	}
	return nil
}

// printTiers summarizes which degradation tier answered each net and why
// the stronger tiers gave up (guard error classes), so a budget set too
// tight — and whether it was the clock or a resource cap — is visible at a
// glance.
func printTiers(tierCount map[core.Tier]int, causes map[string]int) {
	if len(tierCount) == 0 {
		return
	}
	tiers := make([]core.Tier, 0, len(tierCount))
	for t := range tierCount {
		tiers = append(tiers, t)
	}
	sort.Slice(tiers, func(i, j int) bool { return tiers[i] < tiers[j] })
	fmt.Printf("tiers:")
	for _, t := range tiers {
		fmt.Printf(" %s=%d", t, tierCount[t])
	}
	fmt.Println()
	if len(causes) == 0 {
		return
	}
	classes := make([]string, 0, len(causes))
	for c := range causes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("degradation causes:")
	for _, c := range classes {
		fmt.Printf(" %s=%d", c, causes[c])
	}
	fmt.Println()
}

func optimizeOne(ctx context.Context, path string, cfg config, params noise.Params, lib *buffers.Library, opts core.Options) result {
	name := filepath.Base(path)
	f, err := os.Open(path)
	if err != nil {
		return result{name: name, err: err}
	}
	tr, err := netfmt.Read(f)
	f.Close()
	if err != nil {
		return result{name: name, err: err}
	}
	if err := tr.Validate(); err != nil {
		return result{name: name, err: err}
	}

	wasBad := !noise.Analyze(tr, nil, params).Clean()

	work := tr.Clone()
	if cfg.segLen > 0 {
		if _, err := segment.ByLength(work, cfg.segLen); err != nil {
			return result{name: name, err: err}
		}
		if _, err := work.InsertBelow(work.Root()); err != nil {
			return result{name: name, err: err}
		}
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if cfg.maxCands > 0 {
		b := guard.New(ctx)
		b.MaxCandidates = cfg.maxCands
		opts.Budget = b
	}
	res, err := core.Solve(ctx, work, lib, params, opts)
	if err != nil {
		return result{name: name, err: err, wasBad: wasBad}
	}
	clean := noise.Analyze(res.Tree, res.Buffers, params).Clean()

	if cfg.out != "" {
		path := filepath.Join(cfg.out, name)
		of, err := os.Create(path)
		if err != nil {
			return result{name: name, err: err}
		}
		werr := writeBuffered(of, res.Solution)
		if cerr := of.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return result{name: name, err: werr}
		}
	}
	return result{
		name:     name,
		buffers:  res.NumBuffers(),
		fixed:    clean,
		wasBad:   wasBad,
		tier:     res.Tier,
		degraded: res.Degraded,
		tierErrs: res.TierErrors,
		summary:  report.Summary(res.Tree, res.Buffers, params),
	}
}

func writeBuffered(f *os.File, sol *core.Solution) error {
	ids := make([]rctree.NodeID, 0, len(sol.Buffers))
	for v := range sol.Buffers {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintf(f, "# designopt: %d buffers\n", len(ids))
	for _, v := range ids {
		fmt.Fprintf(f, "# buffer %s at node %d\n", sol.Buffers[v].Name, v)
	}
	return netfmt.Write(f, sol.Tree)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
