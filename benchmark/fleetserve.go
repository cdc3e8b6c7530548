package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/fleet"
	"buffopt/internal/netfmt"
	"buffopt/internal/rctree"
	"buffopt/internal/server"
)

// The fleet_serve traffic mix.
const (
	fleetHot        = 64   // hot-set nets, warmed during set-up
	fleetFreshBases = 1024 // distinct nets the never-repeated fresh nets derive from
	fleetFreshShare = 0.25 // share of posted nets that are fresh
	fleetBatchEvery = 5    // every 5th post is a /solve/batch ...
	fleetBatchWidth = 3    // ... of 3 nets
)

// fleetServe is the fleet_serve workload's state.
type fleetServe struct {
	seed    int64
	lab     *fleet.Lab
	client  *http.Client
	router  string
	hot     []netInput
	hotWork []*rctree.Tree
	hotJSON []string // each hot net's text as a JSON string
	expect  []uint64 // each hot net's warm-up answer
	fresh   []freshBase
}

// freshBase is one net fresh nets derive from: fresh net j is base
// j mod fleetFreshBases with its driver resistance scaled by a factor
// unique to j, which gives it a cache key no other post has, at the
// solve cost of the base. The texts are kept split around the
// resistance so building a fresh body costs a few string appends.
type freshBase struct {
	in                 netInput
	work               *rctree.Tree
	textHead, textTail string
	jsonHead, jsonTail string
}

// fleetItem is one net inside a post: a hot-set index, or (hot < 0) the
// fresh net with sequence number fresh.
type fleetItem struct {
	hot, fresh int
}

// fleetPost kinds: half the single solves are raw netfmt, half v2 JSON
// envelopes.
const (
	postRaw = iota
	postV2
	postBatch
)

// fleetRecord is one measured post, kept by traced runs for the replay.
type fleetRecord struct {
	i      int
	op     int64
	status int
	body   []byte
	reply  []byte
}

func runFleetServe(r *runner) error {
	hotN, freshN := fleetHot, fleetFreshBases
	if r.cfg.smoke {
		hotN, freshN = 8, 16
	}
	var f *fleetServe
	teardown, err := r.setup(func() (func(), error) {
		fs, err := newFleetServe(r.cfg.seed, hotN, freshN)
		if err != nil {
			return nil, err
		}
		r.resetWarm()
		// Warm the hot set through the router, so the timed phase starts
		// with every hot net cached on the replica the router sends it to.
		fs.expect = make([]uint64, hotN)
		for i := range fs.hot {
			var resp server.SolveResponse
			err := postJSON(fs.client, fs.router+"/solve", envelope(fs.hotJSON[i]), &resp)
			if err == nil {
				err = auditResponse(&resp, fs.hotWork[i], library, &sectionV)
			}
			fs.expect[i] = answerOfResponse(&resp).hash()
			r.warmed(fs.expect[i], err)
		}
		f = fs
		return fs.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	f.fill(r, cacheFill(hotN, r.cfg.smoke))

	// Each reply is decoded and audited once its latency is taken; traced
	// runs also keep the exchange for the replay.
	var records []fleetRecord
	r.loop(func(i int) (time.Duration, error) {
		path, ctype, body := f.body(i)
		op := r.tr.newOp()
		t0 := r.tr.now()
		start := time.Now()
		status, reply, err := post(f.client, f.router+path, ctype, body)
		lat := time.Since(start)
		r.tr.op(op, "op", t0)
		if err != nil {
			return lat, err
		}
		if r.tr != nil {
			records = append(records, fleetRecord{i: i, op: op, status: status, body: body, reply: reply})
		}
		return lat, f.audit(i, status, reply)
	})
	if r.tr == nil {
		return nil
	}
	if err := f.replay(r, records); err != nil {
		return err
	}
	return r.probe(probeSet{samples: f.hot[:min(16, len(f.hot))], lab: f.lab, client: f.client})
}

func newFleetServe(seed int64, hotN, freshN int) (*fleetServe, error) {
	f := &fleetServe{seed: seed}
	var err error
	if f.hot, err = suite(seed, hotN); err != nil {
		return nil, err
	}
	for _, in := range f.hot {
		w, err := in.worked()
		if err != nil {
			return nil, err
		}
		f.hotWork = append(f.hotWork, w)
		f.hotJSON = append(f.hotJSON, jsonString(in.text))
	}
	bases, err := suite(seed+1, freshN)
	if err != nil {
		return nil, err
	}
	for _, in := range bases {
		fb, err := newFreshBase(in)
		if err != nil {
			return nil, err
		}
		f.fresh = append(f.fresh, fb)
	}
	if f.lab, err = startLab(); err != nil {
		return nil, err
	}
	f.router = "http://" + f.lab.Router.Addr()
	f.client = newClient(runtime.NumCPU()) // the fill posts from one goroutine per CPU
	return f, nil
}

func (f *fleetServe) close() {
	f.client.CloseIdleConnections()
	f.lab.Close()
}

func newFreshBase(in netInput) (freshBase, error) {
	w, err := in.worked()
	if err != nil {
		return freshBase{}, err
	}
	fb := freshBase{in: in, work: w}
	r := "driver r=" + strconv.FormatFloat(in.raw.DriverResistance, 'g', -1, 64) + " "
	var ok bool
	if fb.textHead, fb.textTail, ok = strings.Cut(in.text, r); !ok {
		return freshBase{}, fmt.Errorf("fresh net %q: driver line not found", in.raw.Node(in.raw.Root()).Name)
	}
	fb.textHead += "driver r="
	fb.textTail = " " + fb.textTail
	js := jsonString(in.text)
	if fb.jsonHead, fb.jsonTail, ok = strings.Cut(js, r); !ok {
		return freshBase{}, fmt.Errorf("fresh net: driver line not found in its JSON form")
	}
	fb.jsonHead += "driver r="
	fb.jsonTail = " " + fb.jsonTail
	return fb, nil
}

// cacheFill is how many fill nets bring both replicas' caches to their
// 4096-entry bound: 8192 less the hot set, plus a margin for the uneven
// split rendezvous hashing makes between the two replicas.
func cacheFill(hotN int, smoke bool) int {
	if smoke {
		return 64
	}
	return 2*bufferdConfig().CacheEntries - hotN + 800
}

// fill runs after set-up and before timing: it posts n fill nets —
// derived from the fresh bases like fresh nets, but never equal to one —
// so every replica's cache is at its entry bound when timing starts. A
// cache still filling would grow the heap, and with it rss_mb and
// the GC's cost, in proportion to how many fresh nets a run gets through.
// The fill goes in batches straight to the replica that owns each net
// (the one the router would pick), because batches of fresh solves
// outlast the router's hedge delay and a hedge would solve them twice.
// Then it touches the hot set again, which the fill pushed to the cold
// end of each replica's LRU. Fill answers are audited and join the
// digest.
func (f *fleetServe) fill(r *runner, n int) {
	// Narrow enough that the fill's concurrent batches never overflow a
	// replica's workers plus 64 queue slots.
	const width = 16
	names := make([]string, len(f.lab.Replicas))
	for i, rep := range f.lab.Replicas {
		names[i] = rep.Name
	}
	keyer := server.NewKeyer(bufferdConfig())
	items := make([]string, n)
	owner := make([]int, n)
	parallelEach(n, func(j int) {
		base, res := f.fillR(j)
		items[j] = string(envelope(base.jsonHead + strconv.FormatFloat(res, 'g', -1, 64) + base.jsonTail))
		owner[j] = server.RendezvousRank(keyer.SolveKey("application/json", nil, []byte(items[j])), names)[0]
	})
	var batches [][]int // fill-net indices, one owner per batch
	for o := range names {
		var cur []int
		for j := 0; j < n; j++ {
			if owner[j] != o {
				continue
			}
			if cur = append(cur, j); len(cur) == width {
				batches, cur = append(batches, cur), nil
			}
		}
		if len(cur) > 0 {
			batches = append(batches, cur)
		}
	}
	hashes := make([][]uint64, len(batches))
	errs := make([]error, len(batches))
	parallelEach(len(batches), func(b int) {
		js := batches[b]
		envs := make([]string, len(js))
		for k, j := range js {
			envs[k] = items[j]
		}
		url := "http://" + names[owner[js[0]]] + "/solve/batch"
		status, reply, err := post(f.client, url, "application/json", batchBody(envs))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("fill batch: status %d", status)
		}
		var resps []*server.SolveResponse
		if err == nil {
			resps, err = replies(postBatch, reply, len(js))
		}
		for k := 0; err == nil && k < len(resps); k++ {
			base, res := f.fillR(js[k])
			w := base.work.Clone()
			w.DriverResistance = res
			if err = auditResponse(resps[k], w, library, &sectionV); err == nil {
				hashes[b] = append(hashes[b], answerOfResponse(resps[k]).hash())
			}
		}
		errs[b] = err
	})
	for b := range hashes {
		for _, h := range hashes[b] {
			r.warmed(h, nil)
		}
		if errs[b] != nil {
			r.warmed(0, errs[b])
		}
	}
	for i := range f.hot {
		var resp server.SolveResponse
		err := postJSON(f.client, f.router+"/solve", envelope(f.hotJSON[i]), &resp)
		if err == nil && answerOfResponse(&resp).hash() != f.expect[i] {
			err = fmt.Errorf("hot net %d: answer differs from its warm-up answer", i)
		}
		if err != nil {
			r.warmed(0, err)
		}
	}
}

// fillR is fill net j's base and driver resistance: scaled down where
// fresh nets scale up, so no fill net is ever a fresh net.
func (f *fleetServe) fillR(j int) (freshBase, float64) {
	b := f.fresh[j%len(f.fresh)]
	cycle := j / len(f.fresh)
	return b, b.in.raw.DriverResistance * (1 - float64(cycle+1)*1e-9)
}

// freshR is fresh net j's driver resistance.
func (f *fleetServe) freshR(j int) (freshBase, float64) {
	b := f.fresh[j%len(f.fresh)]
	cycle := j / len(f.fresh)
	return b, b.in.raw.DriverResistance * (1 + float64(cycle+1)*1e-9)
}

// mix draws a reproducible value in [0, 1) for item id from the seed.
func (f *fleetServe) mix(id int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(f.seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(id))
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / (1 << 53)
}

// post returns what op index i posts: its kind and its nets. The slot's
// contents depend only on i and the seed, never on timing.
func (f *fleetServe) post(i int) (int, []fleetItem) {
	kind, width := postRaw, 1
	switch {
	case i%fleetBatchEvery == fleetBatchEvery-1:
		kind, width = postBatch, fleetBatchWidth
	case i%2 == 1:
		kind = postV2
	}
	items := make([]fleetItem, width)
	for k := range items {
		id := i*fleetBatchWidth + k
		u := f.mix(id)
		if u < fleetFreshShare {
			items[k] = fleetItem{hot: -1, fresh: id}
		} else {
			items[k] = fleetItem{hot: int((u - fleetFreshShare) / (1 - fleetFreshShare) * float64(len(f.hot)))}
		}
	}
	return kind, items
}

// body builds the request for op index i.
func (f *fleetServe) body(i int) (path, contentType string, body []byte) {
	kind, items := f.post(i)
	netJSON := func(it fleetItem) string {
		if it.hot >= 0 {
			return f.hotJSON[it.hot]
		}
		b, r := f.freshR(it.fresh)
		return b.jsonHead + strconv.FormatFloat(r, 'g', -1, 64) + b.jsonTail
	}
	switch kind {
	case postRaw:
		it := items[0]
		if it.hot >= 0 {
			return "/solve", "text/plain", []byte(f.hot[it.hot].text)
		}
		b, r := f.freshR(it.fresh)
		return "/solve", "text/plain", []byte(b.textHead + strconv.FormatFloat(r, 'g', -1, 64) + b.textTail)
	case postV2:
		return "/solve", "application/json", envelope(netJSON(items[0]))
	}
	envs := make([]string, len(items))
	for k, it := range items {
		envs[k] = string(envelope(netJSON(it)))
	}
	return "/solve/batch", "application/json", batchBody(envs)
}

// batchBody is a /solve/batch body of the given JSON envelopes.
func batchBody(envelopes []string) []byte {
	return []byte(`{"nets": [` + strings.Join(envelopes, ", ") + `]}`)
}

// envelope wraps a JSON-encoded net text in a v2 envelope with every
// knob at its default.
func envelope(netJSON string) []byte {
	return []byte(`{"v": 2, "net": ` + netJSON + `}`)
}

func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}

// worked returns the client's copy of the tree the replica solved for
// it, plus the expected answer hash (0 for fresh nets, which have no
// earlier answer).
func (f *fleetServe) worked(it fleetItem) (*rctree.Tree, uint64) {
	if it.hot >= 0 {
		return f.hotWork[it.hot], f.expect[it.hot]
	}
	b, r := f.freshR(it.fresh)
	w := b.work.Clone()
	w.DriverResistance = r
	return w, 0
}

// replies decodes a post's 200 reply into its per-net answers.
func replies(kind int, raw []byte, want int) ([]*server.SolveResponse, error) {
	if kind != postBatch {
		var resp server.SolveResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		return []*server.SolveResponse{&resp}, nil
	}
	var br server.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != want {
		return nil, fmt.Errorf("batch of %d answered %d", want, len(br.Results))
	}
	out := make([]*server.SolveResponse, want)
	for k, it := range br.Results {
		if it.Error != nil {
			return nil, fmt.Errorf("batch item %d: %s (%s)", k, it.Error.Error, it.Error.Class)
		}
		out[k] = it.Result
	}
	return out, nil
}

// audit checks one post's reply: a 200, and for every net an exact,
// Elmore-consistent, noise-clean answer equal to the warm-up answer for
// hot nets.
func (f *fleetServe) audit(i, status int, reply []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(reply)))
	}
	kind, items := f.post(i)
	resps, err := replies(kind, reply, len(items))
	if err != nil {
		return err
	}
	for k, it := range items {
		w, want := f.worked(it)
		if err := auditResponse(resps[k], w, library, &sectionV); err != nil {
			return err
		}
		if it.hot >= 0 && answerOfResponse(resps[k]).hash() != want {
			return fmt.Errorf("hot net %d: answer differs from its warm-up answer", it.hot)
		}
	}
	return nil
}

// replay re-runs, in process and after the timed phase, the pipeline a
// replica ran for each post — envelope decode, netfmt decode, cache key,
// then a cache hit or segmenting plus a solve (as the reply's cached flag
// says), the analyzers buildResponse runs, and the encode — as replay
// spans under the post's op span. What the replay cannot account for is
// transport, admission and the router.
func (f *fleetServe) replay(r *runner, records []fleetRecord) error {
	local := core.NewSolveCache(4096, 256<<20, "bench")
	for i, in := range f.hot {
		res, err := in.solve(r.ctx, f.hotWork[i])
		if err != nil {
			return err
		}
		local.Put(in.cacheKey(), res)
	}
	for _, rec := range records {
		if err := f.replayPost(r, local, rec); err != nil {
			return err
		}
	}
	return nil
}

// replayPost replays one post: the envelope decode (JSON posts only),
// each net's pipeline, and the encode of the whole reply.
func (f *fleetServe) replayPost(r *runner, local *core.SolveCache, rec fleetRecord) error {
	if rec.status != http.StatusOK {
		return nil
	}
	tr := r.tr
	kind, items := f.post(rec.i)
	resps, err := replies(kind, rec.reply, len(items))
	if err != nil {
		return nil // counted by the audit
	}
	texts := make([]string, len(items))
	switch kind {
	case postRaw:
		texts[0] = string(rec.body)
	case postV2:
		t := tr.now()
		var env server.Envelope
		err := json.Unmarshal(rec.body, &env)
		tr.span(rec.op, "server.decode", kindReplay, t)
		if err != nil {
			return err
		}
		texts[0] = env.Net
	default:
		t := tr.now()
		var batch struct{ Nets []server.Envelope }
		err := json.Unmarshal(rec.body, &batch)
		tr.span(rec.op, "server.decode", kindReplay, t)
		if err != nil {
			return err
		}
		for k := range texts {
			texts[k] = batch.Nets[k].Net
		}
	}
	for k := range items {
		if err := f.replayItem(r, local, rec.op, texts[k], resps[k]); err != nil {
			return err
		}
	}
	var reply any = resps[0]
	if kind == postBatch {
		var br server.BatchResponse
		if err := json.Unmarshal(rec.reply, &br); err != nil {
			return err
		}
		reply = &br
	}
	t := tr.now()
	err = encodeResponse(reply)
	tr.span(rec.op, "server.encode", kindReplay, t)
	return err
}

func (f *fleetServe) replayItem(r *runner, local *core.SolveCache, op int64, text string, resp *server.SolveResponse) error {
	tr := r.tr
	t := tr.now()
	raw, err := netfmt.Read(strings.NewReader(text))
	tr.span(op, "netfmt.read", kindReplay, t)
	if err != nil {
		return err
	}
	in := netInput{raw: raw, segLen: f.hot[0].segLen}
	t = tr.now()
	key := in.cacheKey()
	tr.span(op, "core.key", kindReplay, t)
	var res *core.SolveResult
	if resp.Cached {
		t = tr.now()
		res, _, err = local.Do(r.ctx, key, func() (*core.SolveResult, bool, error) {
			return nil, false, fmt.Errorf("replay: cached reply for a net the local cache lacks")
		})
		tr.span(op, "cache.hit", kindReplay, t)
	} else {
		t = tr.now()
		err = segmentTree(raw, in.segLen)
		tr.span(op, "segment", kindReplay, t)
		if err != nil {
			return err
		}
		r.workedNodes(raw.Len())
		t = tr.now()
		res, err = in.solve(r.ctx, raw)
		tr.span(op, "core.solve", kindReplay, t)
	}
	if err != nil {
		return err
	}
	t = tr.now()
	analyzeBoth(res)
	tr.span(op, "analyze", kindReplay, t)
	return nil
}
