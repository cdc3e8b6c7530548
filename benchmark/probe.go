package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/fleet"
	"buffopt/internal/netfmt"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/server"
)

// probeSet is what a traced run's probes work from.
type probeSet struct {
	samples []netInput // a sample of the workload's own inputs
	// lab and client are the workload's own fleet and HTTP client, when
	// it has them; otherwise the probes stand up their own.
	lab    *fleet.Lab
	client *http.Client
}

// probeEdits is how many edits the ECO probe sends per sampled net.
const probeEdits = 4

// probe times, on the workload's own inputs, every layer its ops and
// replay never called, so each traced run reports every per-layer
// metric; each such timing is a probe span and attributes nothing. It
// also measures the DP's allocations (runtime.MemStats around single
// solves) when the workload's replay has not.
func (r *runner) probe(ps probeSet) error {
	tr := r.tr
	reps := 8
	if r.cfg.smoke {
		reps = 2
	}
	need := map[string]bool{}
	for _, name := range []string{"netfmt.read", "server.decode", "segment", "core.key", "cache.hit", "analyze",
		"server.encode", "server.roundtrip", "eco.delta", "eco.full", "eco.http"} {
		need[name] = !tr.has(name)
	}
	needAlloc := len(tr.values["dp.allocs"]) == 0

	for _, in := range ps.samples {
		for rep := 0; rep < reps; rep++ {
			if need["netfmt.read"] {
				t := tr.now()
				_, err := netfmt.Read(strings.NewReader(in.text))
				tr.span(0, "netfmt.read", kindProbe, t)
				if err != nil {
					return err
				}
			}
			if need["server.decode"] {
				body := v2Envelope(in)
				t := tr.now()
				var env server.Envelope
				err := json.Unmarshal(body, &env)
				tr.span(0, "server.decode", kindProbe, t)
				if err != nil {
					return err
				}
			}
			if need["segment"] {
				w := in.raw.Clone()
				t := tr.now()
				err := segmentTree(w, in.segLen)
				tr.span(0, "segment", kindProbe, t)
				if err != nil {
					return err
				}
			}
			if need["core.key"] {
				t := tr.now()
				in.cacheKey()
				tr.span(0, "core.key", kindProbe, t)
			}
		}
	}

	if needAlloc || need["cache.hit"] || need["analyze"] || need["server.encode"] {
		local := core.NewSolveCache(4096, 256<<20, "bench.probe")
		for _, in := range ps.samples {
			work, err := in.worked()
			if err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := in.solve(r.ctx, work)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			if needAlloc {
				tr.value("dp.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
				tr.value("dp.allocs", float64(after.Mallocs-before.Mallocs))
			}
			key := in.cacheKey()
			local.Put(key, res)
			resp := responseOf(res)
			for rep := 0; rep < reps; rep++ {
				if need["cache.hit"] {
					t := tr.now()
					_, out, err := local.Do(r.ctx, key, func() (*core.SolveResult, bool, error) {
						return nil, false, fmt.Errorf("probe: stored answer missing")
					})
					tr.span(0, "cache.hit", kindProbe, t)
					if err != nil || !out.Hit {
						return fmt.Errorf("probe: cache hit failed: %v", err)
					}
				}
				if need["analyze"] {
					t := tr.now()
					analyzeBoth(res)
					tr.span(0, "analyze", kindProbe, t)
				}
				if need["server.encode"] {
					t := tr.now()
					err := encodeResponse(resp)
					tr.span(0, "server.encode", kindProbe, t)
					if err != nil {
						return err
					}
				}
			}
		}
	}

	if !need["server.roundtrip"] && !need["eco.http"] && len(tr.values["fleet.router"]) > 0 {
		return nil
	}
	lab, client := ps.lab, ps.client
	if lab == nil {
		var err error
		if lab, err = startLab(); err != nil {
			return err
		}
		defer lab.Close()
		client = newClient(1)
		defer client.CloseIdleConnections()
	}
	if need["server.roundtrip"] || len(tr.values["fleet.router"]) == 0 {
		if err := r.probeServing(ps.samples, lab, client, reps); err != nil {
			return err
		}
	}
	if need["eco.delta"] || need["eco.full"] || need["eco.http"] {
		n := min(len(ps.samples), 4)
		if err := r.probeEco(ps.samples[:n], "http://"+lab.Replicas[0].Name, client); err != nil {
			return err
		}
	}
	return nil
}

// probeServing posts each sampled net to the replica that owns its key,
// once to fill its cache, then alternates cache hits straight to that
// replica (server.roundtrip; the round trip minus the solve time the
// reply reports is server.overhead) with the same hit through the router
// (the difference is fleet.router).
func (r *runner) probeServing(samples []netInput, lab *fleet.Lab, client *http.Client, reps int) error {
	tr := r.tr
	names := make([]string, len(lab.Replicas))
	for i, rep := range lab.Replicas {
		names[i] = rep.Name
	}
	keyer := server.NewKeyer(bufferdConfig())
	router := "http://" + lab.Router.Addr() + "/solve"
	for _, in := range samples {
		body := v2Envelope(in)
		owner := "http://" + names[server.RendezvousRank(keyer.SolveKey("application/json", nil, body), names)[0]] + "/solve"
		var resp server.SolveResponse
		if err := postJSON(client, owner, body, &resp); err != nil {
			return err
		}
		for rep := 0; rep < reps; rep++ {
			t := tr.now()
			start := time.Now()
			err := postJSON(client, owner, body, &resp)
			direct := time.Since(start)
			tr.span(0, "server.roundtrip", kindProbe, t)
			if err != nil {
				return err
			}
			if !resp.Cached {
				return fmt.Errorf("probe: a repeated post missed its owner's cache")
			}
			tr.value("server.overhead", ms(direct)-resp.ElapsedMS)
			start = time.Now()
			err = postJSON(client, router, body, &resp)
			routed := time.Since(start)
			if err != nil {
				return err
			}
			tr.value("fleet.router", ms(routed)-ms(direct))
		}
	}
	return nil
}

// probeEco opens an ECO session per sampled net, both on a replica and
// in process, and sends each the same few edits: eco.http times the
// replica's round trip, eco.delta the in-process core.Delta, and eco.full
// a from-scratch core.Optimize of the final edited tree.
func (r *runner) probeEco(samples []netInput, url string, client *http.Client) error {
	tr := r.tr
	for s, in := range samples {
		in.binarize = true
		if in.objective == nil {
			obj := core.MinBuffersNoise // what /solve/delta solves by default
			in.objective = &obj
		}
		es, err := newEcoSession(in, r.cfg.seed+int64(s), true)
		if err != nil {
			return err
		}
		if _, err := es.create(client, url); err != nil {
			return err
		}
		// The in-process session's first Delta fills its memo; only the
		// edits after it are timed, as on the replica.
		if _, err := core.Delta(r.ctx, es.core, nil, core.Options{}); err != nil {
			return err
		}
		for k := 0; k < probeEdits; k++ {
			e := es.nextEdit()
			t := tr.now()
			_, err := es.send(client, url, e)
			tr.span(0, "eco.http", kindProbe, t)
			if err != nil {
				return err
			}
			t = tr.now()
			_, err = core.Delta(r.ctx, es.core, []core.Edit{e}, core.Options{})
			tr.span(0, "eco.delta", kindProbe, t)
			if err != nil {
				return err
			}
		}
		p := es.core.Problem()
		t := tr.now()
		_, err = core.Optimize(r.ctx, p, core.Options{})
		tr.span(0, "eco.full", kindProbe, t)
		if err != nil {
			return err
		}
	}
	return nil
}

// v2Envelope is a v2 envelope carrying the net at its workload's
// segmenting length and objective (for /solve, or to open a
// /solve/delta session).
func v2Envelope(in netInput) []byte {
	v, seg := 2, in.segLen
	env := server.Envelope{V: &v, Net: in.text, Options: &server.OptionsEnvelope{SegLen: &seg}}
	if in.objective != nil {
		env.Problem = &server.ProblemEnvelope{Objective: in.objective.String()}
	}
	body, _ := json.Marshal(env) // the envelope has no unmarshalable fields
	return body
}

// responseOf shapes an answer the way bufferd's /solve does, for the
// encode probe.
func responseOf(res *core.SolveResult) *server.SolveResponse {
	after := noise.Analyze(res.Tree, res.Buffers, sectionV)
	timing := elmore.Analyze(res.Tree, res.Buffers)
	resp := &server.SolveResponse{
		Net:             res.Tree.Node(res.Tree.Root()).Name,
		Tier:            res.Tier.String(),
		Buffers:         []server.BufferPlacement{},
		NumBuffers:      len(res.Buffers),
		SlackPS:         res.Slack * 1e12,
		MaxDelayPS:      timing.MaxDelay * 1e12,
		NoiseViolations: len(after.Violations),
		MaxNoiseV:       after.MaxNoise,
	}
	ids := make([]rctree.NodeID, 0, len(res.Buffers))
	for v := range res.Buffers {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		n := res.Tree.Node(v)
		resp.Buffers = append(resp.Buffers, server.BufferPlacement{Node: int(v), Name: res.Buffers[v].Name, XMM: n.X * 1e3, YMM: n.Y * 1e3})
	}
	return resp
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
