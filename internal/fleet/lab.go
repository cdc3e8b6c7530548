package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"buffopt/internal/faultinject"
	"buffopt/internal/server"
)

// Lab is an in-process fleet: N real bufferd replicas on loopback
// listeners behind one Router, each replica wrapped in a chaos valve
// that can partition (blackhole) or kill (abruptly close) it. The soak
// tests and the benchmark's fleet workload stand their fleets up with
// it. Everything runs over real TCP — partitions hang real
// connections and kills reset them — so the router is exercised against
// the same failure signatures production would show it, not mocks.
type Lab struct {
	Router   *Router
	Replicas []*LabReplica

	cancel     context.CancelFunc
	routerDone chan error
}

// LabConfig configures StartLab.
type LabConfig struct {
	// Replicas is the fleet size. Default 3.
	Replicas int
	// Server is the per-replica config template (Addr and Injector are
	// ignored; every replica listens on its own loopback port).
	Server server.Config
	// Injectors optionally assigns each replica its own request-level
	// fault injector; shorter-than-fleet slices leave the tail clean.
	// Replica-level faults (partition, kill) do not belong here — they
	// are drawn by the chaos driver and applied through the LabReplica
	// methods.
	Injectors []*faultinject.Injector
	// Router is the router config template; Replicas and Addr are filled
	// in (the router listens on a loopback port).
	Router Config
	// SnapshotDir, when non-empty, gives each replica a cache snapshot
	// file ("replica<i>.snap" inside it), so a Restart warm-starts from
	// disk — and the restart chaos driver can corrupt or truncate the
	// file in between to exercise the rejection path.
	SnapshotDir string
	// PeerFill wires each replica's Self/Peers to the lab's replica set,
	// enabling peer read-through fill on local cache misses.
	PeerFill bool
}

// StartLab stands the fleet up: replicas first, then the router probing
// them. It returns once the router's listener is accepting. Shut the
// fleet down with Close.
func StartLab(cfg LabConfig) (*Lab, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	lab := &Lab{routerDone: make(chan error, 1)}
	ok := false
	defer func() {
		if !ok {
			lab.Close()
		}
	}()

	// Open every listener before building any server: peer read-through
	// fill needs each replica's Self/Peers names, and a name here is the
	// bound address.
	lns := make([]net.Listener, 0, cfg.Replicas)
	names := make([]string, 0, cfg.Replicas)
	defer func() {
		if !ok {
			for i := len(lab.Replicas); i < len(lns); i++ {
				lns[i].Close()
			}
		}
	}()
	for i := 0; i < cfg.Replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("fleet: lab replica listen: %w", err)
		}
		lns = append(lns, ln)
		names = append(names, ln.Addr().String())
	}

	for i := 0; i < cfg.Replicas; i++ {
		scfg := cfg.Server
		scfg.Addr = "" // unused: the lab owns the listener
		if i < len(cfg.Injectors) {
			scfg.Injector = cfg.Injectors[i]
		} else {
			scfg.Injector = nil
		}
		if cfg.SnapshotDir != "" {
			scfg.SnapshotPath = filepath.Join(cfg.SnapshotDir, fmt.Sprintf("replica%d.snap", i))
		}
		if cfg.PeerFill {
			scfg.Self = names[i]
			scfg.Peers = append(append([]string(nil), names[:i]...), names[i+1:]...)
		}
		lab.Replicas = append(lab.Replicas, startLabReplica(lns[i], scfg))
	}

	rcfg := cfg.Router
	rcfg.Addr = "127.0.0.1:0"
	rcfg.Replicas = nil
	for _, rep := range lab.Replicas {
		rcfg.Replicas = append(rcfg.Replicas, rep.Name)
	}
	router, err := New(rcfg)
	if err != nil {
		return nil, err
	}
	lab.Router = router
	ctx, cancel := context.WithCancel(context.Background())
	lab.cancel = cancel
	go func() { lab.routerDone <- router.Run(ctx) }()
	select {
	case <-router.Ready():
	case err := <-lab.routerDone:
		lab.routerDone <- err
		return nil, fmt.Errorf("fleet: lab router failed to start: %w", err)
	}
	ok = true
	return lab, nil
}

// Close tears the lab down: the router drains (waiting out its attempt
// ledger), then every replica's listener closes. Healed and un-killed
// replicas shut down gracefully; partitioned valves are opened first so
// no handler goroutine stays parked. Returns the router's Run error.
func (lab *Lab) Close() error {
	var err error
	if lab.cancel != nil {
		lab.cancel()
		err = <-lab.routerDone
	}
	for _, rep := range lab.Replicas {
		rep.shutdown()
	}
	return err
}

// LabReplica is one bufferd instance under the lab's control.
type LabReplica struct {
	// Name is the replica's host:port — its rendezvous identity.
	Name string
	// Server is the underlying bufferd instance (Inflight, BeginDrain).
	Server *server.Server

	cfg    server.Config // retained so Restart rebuilds an identical server
	valve  *valve
	hs     *http.Server
	done   chan error
	killed atomic.Bool
}

func startLabReplica(ln net.Listener, cfg server.Config) *LabReplica {
	rep := &LabReplica{
		Name: ln.Addr().String(),
		cfg:  cfg,
	}
	rep.boot(ln)
	return rep
}

// boot builds a fresh server (warm-starting from the snapshot path, if
// configured) and starts serving it through a fresh valve on ln.
func (r *LabReplica) boot(ln net.Listener) {
	r.Server = server.New(r.cfg)
	r.valve = &valve{}
	r.done = make(chan error, 1)
	r.hs = &http.Server{Handler: r.valve.wrap(r.Server.Handler())}
	hs, done := r.hs, r.done
	go func() { done <- hs.Serve(ln) }()
}

// Partition blackholes the replica: every connection that reaches it —
// probes and solves alike — hangs until the caller's deadline, the
// signature of a network partition (as opposed to a dead process, which
// refuses connections instantly). Idempotent.
func (r *LabReplica) Partition() { r.valve.close() }

// Heal lifts a partition; requests parked at the valve proceed (the
// connection was slow, not lost). Idempotent.
func (r *LabReplica) Heal() { r.valve.open() }

// Partitioned reports whether the valve is currently closed.
func (r *LabReplica) Partitioned() bool { return r.valve.closed() }

// Kill abruptly terminates the replica: the listener and every active
// connection close immediately, mid-response — the process-exit
// signature. The in-flight solves whose connections die are exactly the
// accounting tolerance a kill introduces; sample Server.Inflight()
// immediately before calling. Idempotent; a killed replica never
// returns.
func (r *LabReplica) Kill() {
	if r.killed.Swap(true) {
		return
	}
	r.valve.open() // nothing stays parked behind a dead listener
	r.hs.Close()
	<-r.done
}

// Killed reports whether Kill has run.
func (r *LabReplica) Killed() bool { return r.killed.Load() }

// SnapshotPath returns the replica's cache snapshot file ("" when
// LabConfig.SnapshotDir was unset) — the file a restart chaos driver
// tampers with between Kill and re-listen.
func (r *LabReplica) SnapshotPath() string { return r.cfg.SnapshotPath }

// Restart applies the restart fault: Kill, then optionally tamper with
// the on-disk snapshot (tamper receives SnapshotPath; nil leaves the file
// alone), then bind a fresh server to the same address — same rendezvous
// identity, state only as durable as the snapshot survived. The rebind
// retries briefly: the dead listener's port frees as its close completes.
// Not safe for concurrent use with the other chaos methods; the chaos
// driver is single-threaded.
func (r *LabReplica) Restart(tamper func(snapshotPath string) error) error {
	r.Kill()
	if tamper != nil {
		if err := tamper(r.cfg.SnapshotPath); err != nil {
			return fmt.Errorf("fleet: lab replica %s snapshot tamper: %w", r.Name, err)
		}
	}
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", r.Name); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("fleet: lab replica re-listen %s: %w", r.Name, err)
	}
	r.boot(ln)
	r.killed.Store(false)
	return nil
}

// Drain flips the replica to draining: /readyz answers 503 "draining",
// queued work is shed, in-flight work completes. The connection path
// stays up, which is precisely what distinguishes a drain from a kill
// to the router.
func (r *LabReplica) Drain() { r.Server.BeginDrain() }

// shutdown closes the replica at lab teardown.
func (r *LabReplica) shutdown() {
	if r.killed.Load() {
		return
	}
	r.valve.open()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	cancel()
	err := <-r.done
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Teardown best-effort; the listener is gone either way.
		_ = err
	}
}

// valve is the partition switch: closed, it parks every request before
// the replica's handler until the client gives up or the valve opens.
// Parking — rather than refusing — is what makes the fault a partition:
// the router's dial succeeds, bytes go nowhere, and only its probe
// timeout and hedge timer can save the request.
type valve struct {
	mu      sync.Mutex
	blocked chan struct{} // non-nil while partitioned
}

func (v *valve) close() {
	v.mu.Lock()
	if v.blocked == nil {
		v.blocked = make(chan struct{})
	}
	v.mu.Unlock()
}

func (v *valve) open() {
	v.mu.Lock()
	if v.blocked != nil {
		close(v.blocked)
		v.blocked = nil
	}
	v.mu.Unlock()
}

func (v *valve) closed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.blocked != nil
}

func (v *valve) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v.mu.Lock()
		ch := v.blocked
		v.mu.Unlock()
		if ch != nil {
			select {
			case <-ch:
				// Healed: the request was delayed, not lost.
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}
