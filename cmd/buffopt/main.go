// Command buffopt runs the paper's buffer insertion algorithms on a net in
// the netfmt text format and reports timing and noise before and after.
//
// Usage:
//
//	buffopt -net path/to/net.txt [-alg solve|buffopt|minbuf|delayopt|delayoptk|alg1|alg2]
//	        [-k N] [-seglen meters] [-lambda 0.7] [-rise 0.25e-9] [-vdd 1.8]
//	        [-safe] [-verify] [-report] [-write out.txt]
//	        [-timeout 30s] [-max-cands N]
//	        [-metrics out.json] [-v] [-pprof addr] [-cpuprofile f] [-memprofile f]
//
// The default algorithm is solve: the degradation ladder whose exact tier
// is minbuf, the BuffOpt tool configuration of Section V (fewest buffers
// meeting both noise and timing). -verify additionally runs the detailed
// coupled-RC simulation (the 3dnoise stand-in) on the result.
//
// -timeout bounds the wall-clock time and -max-cands the DP candidate
// lists; Ctrl-C cancels cleanly. Under "-alg solve", hitting a bound
// degrades to a cheaper method instead of failing (the tier used is
// printed); every other algorithm reports the budget error.
//
// -metrics writes the telemetry snapshot (candidate counts, prune ratios,
// per-tier durations) as JSON on exit; -v traces solver spans to stderr;
// -pprof serves net/http/pprof and expvar for live inspection.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/noise"
	"buffopt/internal/noisesim"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
	"buffopt/internal/report"
	"buffopt/internal/segment"
)

// config carries the parsed command line.
type config struct {
	netPath, alg      string
	k                 int
	segLen            float64
	lambda, rise, vdd float64
	margin            float64
	safe, verify, rep bool
	outPath, spefPath string
	timeout           time.Duration
	maxCands          int

	verbose    bool
	metrics    string
	pprofAddr  string
	cpuprofile string
	memprofile string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.netPath, "net", "", "net file in netfmt format (required)")
	flag.StringVar(&cfg.alg, "alg", "solve", "algorithm: solve, buffopt, minbuf, delayopt, delayoptk, alg1, alg2")
	flag.IntVar(&cfg.k, "k", 4, "buffer bound for delayoptk")
	flag.Float64Var(&cfg.segLen, "seglen", 0.5e-3, "wire segmenting length in meters (0 disables)")
	flag.Float64Var(&cfg.lambda, "lambda", 0.7, "coupling-to-total-capacitance ratio λ")
	flag.Float64Var(&cfg.rise, "rise", 0.25e-9, "aggressor rise time, s")
	flag.Float64Var(&cfg.vdd, "vdd", 1.8, "supply voltage, V")
	flag.Float64Var(&cfg.margin, "bufnm", 0.8, "buffer library noise margin, V")
	flag.BoolVar(&cfg.safe, "safe", false, "use exact multi-buffer pruning")
	flag.BoolVar(&cfg.verify, "verify", false, "verify the result with the detailed RC simulator")
	flag.BoolVar(&cfg.rep, "report", false, "print a full per-sink timing/noise report")
	flag.StringVar(&cfg.outPath, "write", "", "write the buffered tree to this file (buffers noted as comments)")
	flag.StringVar(&cfg.spefPath, "spef", "", "also write the buffered tree's parasitics as a SPEF fragment")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock budget for the solve (0 disables)")
	flag.IntVar(&cfg.maxCands, "max-cands", 0, "cap on DP candidate-list size (0 disables)")
	flag.BoolVar(&cfg.verbose, "v", false, "trace solver spans to stderr")
	flag.StringVar(&cfg.metrics, "metrics", "", "write a JSON metrics snapshot to this file on exit")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if cfg.netPath == "" {
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
		fmt.Fprintln(os.Stderr, "buffopt:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	runErr := run(ctx, cfg)
	if err := stopObs(); err != nil {
		fmt.Fprintln(os.Stderr, "buffopt: telemetry:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "buffopt:", runErr)
		os.Exit(guard.ExitCode(runErr))
	}
}

// budget assembles the run's resource budget from the context and flags.
func (cfg config) budget(ctx context.Context) *guard.Budget {
	b := guard.New(ctx)
	b.MaxCandidates = cfg.maxCands
	return b
}

func run(ctx context.Context, cfg config) error {
	f, err := os.Open(cfg.netPath)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := netfmt.Read(f)
	if err != nil {
		return err
	}
	// netfmt validates structurally; re-validate explicitly so a future
	// reader bug still cannot push a malformed tree into the solvers.
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("net %s failed validation: %w", cfg.netPath, err)
	}
	alg, k, segLen, vdd, rep := cfg.alg, cfg.k, cfg.segLen, cfg.vdd, cfg.rep
	outPath, spefPath := cfg.outPath, cfg.spefPath
	params := noise.Params{CouplingRatio: cfg.lambda, Slope: cfg.vdd / cfg.rise}
	lib := buffers.DefaultLibrary(cfg.margin)
	opts := core.Options{SafePruning: cfg.safe, Budget: cfg.budget(ctx)}

	work := tr.Clone()
	if segLen > 0 {
		if _, err := segment.ByLength(work, segLen); err != nil {
			return err
		}
		if _, err := work.InsertBelow(work.Root()); err != nil {
			return err
		}
	}

	before := noise.Analyze(tr, nil, params)
	beforeTiming := elmore.Analyze(tr, nil)
	fmt.Printf("net %s: %d sinks, %.3f mm, %.1f fF total\n",
		tr.Node(tr.Root()).Name, tr.NumSinks(), tr.TotalWireLength()*1e3, tr.TotalCap()*1e15)
	fmt.Printf("before: max delay %.1f ps, worst slack %.1f ps, noise violations %d (max %.3f V)\n",
		beforeTiming.MaxDelay*1e12, beforeTiming.WorstSlack*1e12, len(before.Violations), before.MaxNoise)

	var sol *core.Solution
	var slack float64
	haveSlack := false
	switch alg {
	case "solve":
		r, err := core.Solve(ctx, work, lib, params, opts)
		if err != nil {
			return err
		}
		if r.Degraded {
			fmt.Printf("degraded to tier %s after %d stronger tier(s) hit the budget\n",
				r.Tier, len(r.TierErrors))
			for _, te := range r.TierErrors {
				fmt.Printf("  %v\n", te)
			}
		} else {
			fmt.Printf("solved at tier %s\n", r.Tier)
		}
		sol, slack, haveSlack = r.Solution, r.Slack, true
	case "buffopt":
		r, err := core.Optimize(ctx, core.Problem{
			Tree: work, Library: lib, Params: params, Objective: core.MaxSlackNoise,
		}, opts)
		if err != nil {
			return err
		}
		sol, slack, haveSlack = r.Solution, r.Slack, true
	case "minbuf":
		r, err := core.Optimize(ctx, core.Problem{
			Tree: work, Library: lib, Params: params, Objective: core.MinBuffersNoise,
		}, opts)
		if err != nil {
			return err
		}
		sol, slack, haveSlack = r.Solution, r.Slack, true
	case "delayopt":
		r, err := core.Optimize(ctx, core.Problem{Tree: work, Library: lib, Objective: core.MaxSlack}, opts)
		if err != nil {
			return err
		}
		sol, slack, haveSlack = r.Solution, r.Slack, true
	case "delayoptk":
		r, err := core.Optimize(ctx, core.Problem{
			Tree: work, Library: lib, Objective: core.MaxSlack, MaxBuffers: &k,
		}, opts)
		if err != nil {
			return err
		}
		sol, slack, haveSlack = r.Solution, r.Slack, true
	case "alg1":
		sol, err = core.Algorithm1Budget(tr, lib, params, opts.Budget)
		if err != nil {
			return err
		}
	case "alg2":
		bin := tr.Clone()
		bin.Binarize()
		sol, err = core.Algorithm2Budget(bin, lib, params, opts.Budget)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}

	after := noise.Analyze(sol.Tree, sol.Buffers, params)
	afterTiming := elmore.Analyze(sol.Tree, sol.Buffers)
	fmt.Printf("after %s: %d buffers, max delay %.1f ps, worst slack %.1f ps, noise violations %d (max %.3f V)\n",
		alg, sol.NumBuffers(), afterTiming.MaxDelay*1e12, afterTiming.WorstSlack*1e12,
		len(after.Violations), after.MaxNoise)
	if haveSlack {
		fmt.Printf("optimizer slack: %.1f ps\n", slack*1e12)
	}

	ids := make([]rctree.NodeID, 0, len(sol.Buffers))
	for v := range sol.Buffers {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		n := sol.Tree.Node(v)
		fmt.Printf("  %s at node %d (%.3f, %.3f) mm\n", sol.Buffers[v].Name, v, n.X*1e3, n.Y*1e3)
	}

	if rep {
		fmt.Println()
		if err := report.Write(os.Stdout, sol.Tree, sol.Buffers, report.Options{
			Params: params, ShowBuffers: true,
		}); err != nil {
			return err
		}
	}

	if cfg.verify {
		sim, err := noisesim.Simulate(sol.Tree, sol.Buffers, noisesim.Options{Vdd: vdd, Params: params, Budget: opts.Budget})
		if err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		fmt.Printf("simulator: peak noise %.3f V, violations %d\n", sim.MaxNoise, len(sim.Violations))
	}

	if outPath != "" {
		out, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer out.Close()
		fmt.Fprintf(out, "# buffered by %s; %d buffers\n", alg, sol.NumBuffers())
		for _, v := range ids {
			fmt.Fprintf(out, "# buffer %s at node %d\n", sol.Buffers[v].Name, v)
		}
		if err := netfmt.Write(out, sol.Tree); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if spefPath != "" {
		out, err := os.Create(spefPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := netfmt.WriteSPEF(out, sol.Tree); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", spefPath)
	}
	return nil
}
