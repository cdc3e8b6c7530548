package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

// batchEnvelope is the application/json body of POST /solve/batch: a list
// of per-net envelopes, each with the same shape (and the same defaults)
// as a single /solve JSON request. Items stay raw until decodeJSON reads
// each one, so a bad item fails alone.
//
//	{"nets": [{"net": "net a\n...end\n"}, {"net": "...", "options": {"timeout_ms": 500}}]}
type batchEnvelope struct {
	Nets []json.RawMessage `json:"nets"`
}

// BatchResponse is the 200 body of POST /solve/batch. The batch as a
// whole succeeds whenever it was decodable and admissible; individual
// nets fail individually (partial-failure semantics), each carrying
// either a result or an error, never both.
type BatchResponse struct {
	// Count is the number of nets in the request.
	Count int `json:"count"`
	// Succeeded and Failed partition Count.
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	// Results holds one entry per net, in request order.
	Results []BatchItem `json:"results"`
	// ElapsedMS is the wall time of the whole batch, milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// BatchItem is one net's outcome inside a BatchResponse.
type BatchItem struct {
	// Index is the net's position in the request (echoed so clients can
	// stream or reorder safely).
	Index int `json:"index"`
	// Result is the solve outcome; nil when the item failed.
	Result *SolveResponse `json:"result,omitempty"`
	// Error describes the item's failure — decode rejection, per-item
	// shed, or solver error — with the same class/status vocabulary as a
	// non-200 /solve response. Nil when the item succeeded.
	Error *ErrorResponse `json:"error,omitempty"`
}

// handleBatch is POST /solve/batch: decode the batch, fan the nets across
// the shared admission-controlled worker pool, and report per-net
// results. Admission happens per item, so batch traffic cannot jump the
// queue ahead of /solve traffic — a batch is N queue entries, not one
// giant request — and a saturated pool sheds the batch's tail items
// individually rather than stalling the whole batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "invalid", "POST a batch of nets to /solve/batch", 0)
		return
	}
	obs.Inc("server.batch.requests")

	// Root span for the whole batch; each item gets its own child span in
	// solveBatchItem, so per-item sheds and faults annotate distinct spans
	// and the trace ledgers count items, not batches.
	ctx, span := s.tracer.StartTrace(r.Context(), "server.batch", obs.TraceParentFrom(r.Header))
	defer span.End()
	w.Header().Set("X-Trace-Id", span.TraceID().String())

	if s.draining.Load() {
		s.shed(w, errDraining)
		obs.Inc("server.batch.shed.draining")
		span.SetAttr("shed", "draining")
		return
	}

	env, err := s.decodeBatch(r)
	if err != nil {
		obs.Inc("server.batch.decode.rejected")
		writeError(w, decodeStatus(err), guard.Class(err), err.Error(), 0)
		return
	}
	obs.Add("server.batch.nets", int64(len(env.Nets)))

	start := time.Now()
	resp := BatchResponse{Count: len(env.Nets), Results: make([]BatchItem, len(env.Nets))}
	var wg sync.WaitGroup
	for i := range env.Nets {
		item := &resp.Results[i]
		item.Index = i

		// Decode before fan-out: a malformed item must not cost a queue
		// slot, and its rejection is deterministic regardless of load.
		req, err := s.decodeJSON(env.Nets[i])
		if err != nil {
			obs.Inc("server.batch.item.outcome." + guard.Class(err))
			item.Error = &ErrorResponse{Error: err.Error(), Class: guard.Class(err), Status: decodeStatus(err)}
			continue
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			s.solveBatchItem(ctx, req, item)
		}()
	}
	wg.Wait()

	for i := range resp.Results {
		if resp.Results[i].Error == nil {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	obs.ObserveDuration("server.batch.duration", time.Since(start).Nanoseconds())
	writeJSON(w, http.StatusOK, resp)
}

// solveBatchItem runs one decoded batch item through admission and the
// solver, filling in its slot of the response. Each item carries its own
// guard.Safe (inside solveAdmitted), so a panicking net is that item's
// error, not the batch's. ctx is the batch's traced request context; the
// per-item span opened here is what admission sheds and injected faults
// annotate, one span per item.
func (s *Server) solveBatchItem(ctx context.Context, req *solveRequest, item *BatchItem) {
	ctx, span := obs.Span(ctx, "server.batch.item")
	defer span.End()
	release, err := s.admitNS(ctx, "server.batch")
	if err != nil {
		_, body := s.shedResponse(err)
		item.Error = &body
		return
	}
	defer release()

	resp, err := s.solveAdmitted(ctx, req, "server.batch.item")
	if err != nil {
		item.Error = &ErrorResponse{
			Error:  err.Error(),
			Class:  guard.Class(err),
			Status: guard.HTTPStatus(err),
		}
		return
	}
	item.Result = &resp
}

// decodeBatch parses and bounds the batch body. Top-level failures —
// malformed JSON, an empty or oversized batch, a non-JSON content type,
// a query parameter — reject the whole request; per-item problems are
// left for the caller's partial-failure path.
func (s *Server) decodeBatch(r *http.Request) (*batchEnvelope, error) {
	if !isJSON(r.Header.Get("Content-Type")) {
		return nil, invalidf("/solve/batch requires an application/json body")
	}
	if err := checkQuery(r.URL.Query()); err != nil {
		return nil, err
	}
	body, err := s.readBody(r)
	if err != nil {
		return nil, err
	}
	if err := s.checkSize(body); err != nil {
		return nil, err
	}
	var env batchEnvelope
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, invalidf("malformed batch request: %v", err)
	}
	if len(env.Nets) == 0 {
		return nil, invalidf(`batch request has no "nets"`)
	}
	if len(env.Nets) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("server: batch of %d nets exceeds the %d-net limit: %w",
			len(env.Nets), s.cfg.MaxBatch, guard.ErrBudgetExceeded)
	}
	return &env, nil
}
