package obs

import (
	"fmt"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
)

// StartOptions configures Start, the one-call telemetry setup the CLIs
// share. Zero-value fields are disabled.
type StartOptions struct {
	// Verbose enables slog span tracing to stderr at Debug level.
	Verbose bool
	// MetricsPath, when non-empty, makes Stop write the default registry's
	// JSON snapshot there.
	MetricsPath string
	// PprofAddr, when non-empty, serves net/http/pprof (and /debug/vars
	// with the registry published through expvar) on this address.
	PprofAddr string
	// CPUProfilePath, when non-empty, runs a CPU profile until Stop.
	CPUProfilePath string
	// MemProfilePath, when non-empty, makes Stop write a heap profile.
	MemProfilePath string
}

// Start wires up tracing, profiling, and the pprof server per o and
// returns the stop function that flushes everything (CPU profile, heap
// profile, metrics snapshot). The returned stop is never nil and is safe
// to call exactly once, typically via defer. The pprof HTTP server is a
// daemon: it is not shut down by stop (profiling a process that is about
// to exit needs no teardown, and the CLIs exit right after).
func Start(o StartOptions) (stop func() error, err error) {
	Verbose(os.Stderr, o.Verbose)

	var cpuFile *os.File
	if o.CPUProfilePath != "" {
		cpuFile, err = os.Create(o.CPUProfilePath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: start CPU profile: %w", err)
		}
	}

	if o.PprofAddr != "" {
		publishExpvar()
		srv := &http.Server{Addr: o.PprofAddr}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "obs: pprof server: %v\n", err)
			}
		}()
	}

	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && first == nil {
				first = err
			}
		}
		if o.MemProfilePath != "" {
			f, err := os.Create(o.MemProfilePath)
			if err != nil {
				if first == nil {
					first = err
				}
			} else {
				runtime.GC() // materialize up-to-date allocation stats
				if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
					first = err
				}
				if err := f.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		if o.MetricsPath != "" {
			if err := WriteSnapshotFile(o.MetricsPath); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
