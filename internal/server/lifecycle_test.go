package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"buffopt/internal/faultinject"
	"buffopt/internal/obs"
)

// startDaemon runs a Server on an ephemeral port under a cancelable
// context and returns it with its base URL and Run's error channel.
func startDaemon(t *testing.T, cfg Config) (*Server, string, context.CancelFunc, chan error) {
	t.Helper()
	old := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(old) })

	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errCh := make(chan error, 1)
	go func() { errCh <- s.Run(ctx) }()
	select {
	case <-s.Ready():
	case err := <-errCh:
		t.Fatalf("Run died before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("listener never came up")
	}
	return s, "http://" + s.Addr(), cancel, errCh
}

// TestGracefulDrain is the SIGTERM path end to end: cancellation stops
// admission, queued waiters are shed with 503, the in-flight request runs
// to completion, Run returns nil, the port closes, and no handler
// goroutines are left behind.
func TestGracefulDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	inj, err := faultinject.New(faultinject.Config{
		Seed:      11,
		Rates:     map[faultinject.Fault]float64{faultinject.FaultSlow: 1},
		SlowDelay: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, url, cancel, errCh := startDaemon(t, Config{
		Workers:      1,
		QueueDepth:   4,
		Injector:     inj,
		DrainTimeout: 10 * time.Second,
	})

	// One slow request in flight, one waiting in the queue.
	type outcome struct {
		status int
		class  string
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(url+"/solve", "text/plain", strings.NewReader(sampleNet))
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			var er ErrorResponse
			body, _ := io.ReadAll(resp.Body)
			json.Unmarshal(body, &er)
			results <- outcome{status: resp.StatusCode, class: er.Class}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < 1 || s.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("load never settled: inflight %d queued %d", s.inflight.Load(), s.queued.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// SIGTERM.
	cancel()

	// Readiness flips to draining (the listener is still accepting during
	// Shutdown's grace period, so the probe still answers).
	probeDeadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(probeDeadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}

	// The readiness probe reports draining (direct handler call: the
	// listener stops accepting new connections the moment Shutdown runs,
	// but a load balancer's existing keep-alive probe would see this).
	rec := httptest.NewRecorder()
	s.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("/readyz during drain body = %s, want draining reason", rec.Body.String())
	}

	// The in-flight request completes with 200; the queued one is shed
	// with 503.
	var got200, got503 int
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			switch r.status {
			case http.StatusOK:
				got200++
			case http.StatusServiceUnavailable:
				got503++
				if r.class != "shed" {
					t.Errorf("drained request class = %q, want shed", r.class)
				}
			default:
				t.Errorf("request finished %d, want 200 or 503", r.status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request hung through drain")
		}
	}
	if got200 != 1 || got503 != 1 {
		t.Fatalf("drain outcomes: %d×200 %d×503, want 1 and 1", got200, got503)
	}

	// Run exits cleanly, within the drain budget.
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("Run returned %v, want nil on clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after cancel")
	}

	// The port is really closed.
	if c, err := net.DialTimeout("tcp", s.Addr(), 500*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("listener still accepting after drain")
	}

	// No leaked handler goroutines (keep-alive transport conns take a
	// moment to unwind; poll with slack).
	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d, baseline %d; leak?\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := obs.Default().Snapshot()
	if snap.Counters["server.drain.begun"] != 1 || snap.Counters["server.drain.completed"] != 1 {
		t.Fatalf("drain counters: %+v", snap.Counters)
	}
	if snap.Counters["server.shed.draining"] != 1 {
		t.Fatalf("shed.draining = %d, want 1", snap.Counters["server.shed.draining"])
	}
}

// TestDrainRacesInflightBatch pins the partial-failure semantics the
// fleet router's failover logic relies on: a SIGTERM drain that begins
// while a /solve/batch is mid-flight must still complete the items that
// were already admitted, shed the rest with class "shed" and a
// Retry-After hint, flip /readyz to 503, and still drain cleanly. The
// router treats a replica's drain as "finish what you hold, take nothing
// new" — if drain ever started dropping admitted batch items, failover
// would double-solve or lose them.
func TestDrainRacesInflightBatch(t *testing.T) {
	inj, err := faultinject.New(faultinject.Config{
		Seed:      17,
		Rates:     map[faultinject.Fault]float64{faultinject.FaultSlow: 1},
		SlowDelay: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, url, cancel, errCh := startDaemon(t, Config{
		Workers:      1,
		QueueDepth:   1,
		Injector:     inj,
		DrainTimeout: 10 * time.Second,
	})

	// A width-3 batch against a 1-worker, 1-queue-slot pool: one item
	// runs (held slow for 400ms), one waits, one overflows immediately.
	body := `{"nets":[` +
		`{"net":` + jsonString(sampleNet) + `},` +
		`{"net":` + jsonString(sampleNet) + `},` +
		`{"net":` + jsonString(sampleNet) + `}]}`
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(url+"/solve/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("batch post: %v", err)
			respCh <- nil
			return
		}
		respCh <- resp
	}()

	// Wait until the batch is mid-flight: one item holding the worker,
	// one parked in the queue, and the overflow item shed as queue_full.
	// The items reach admission concurrently, so the third may still be
	// on its way after the first two have settled; drain would then shed
	// it as draining instead.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < 1 || s.queued.Load() < 1 ||
		obs.Default().Snapshot().Counters["server.batch.shed.queue_full"] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("batch never settled mid-flight: inflight %d queued %d",
				s.inflight.Load(), s.queued.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Drain begins while the slot is still held, so the queued item is
	// deterministically shed by drainCh, never raced onto the freed slot.
	cancel()
	probeDeadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(probeDeadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	s.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("/readyz mid-batch drain = %d %s, want 503 draining", rec.Code, rec.Body.String())
	}

	// The batch still answers 200 with per-item outcomes: the admitted
	// item completed, the other two were shed with retry hints.
	var resp *http.Response
	select {
	case resp = <-respCh:
	case <-time.After(10 * time.Second):
		t.Fatal("batch response never arrived through drain")
	}
	if resp == nil {
		t.FailNow()
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch through drain = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("batch body: %v\n%s", err, raw)
	}
	if br.Count != 3 || br.Succeeded != 1 || br.Failed != 2 {
		t.Fatalf("drain-raced batch = %d succeeded / %d failed of %d, want 1/2 of 3", br.Succeeded, br.Failed, br.Count)
	}
	for _, item := range br.Results {
		switch {
		case item.Result != nil:
			if item.Result.Tier == "" {
				t.Errorf("admitted item %d completed without a tier", item.Index)
			}
		case item.Error != nil:
			if item.Error.Class != "shed" {
				t.Errorf("item %d class = %q, want shed", item.Index, item.Error.Class)
			}
			if item.Error.RetryAfterS < 1 {
				t.Errorf("shed item %d missing retry_after_s: %+v", item.Index, item.Error)
			}
		default:
			t.Errorf("item %d has neither result nor error", item.Index)
		}
	}

	// And the drain still completes cleanly.
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("Run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned")
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["server.batch.shed.draining"] != 1 {
		t.Errorf("batch.shed.draining = %d, want 1", snap.Counters["server.batch.shed.draining"])
	}
	if snap.Counters["server.batch.shed.queue_full"] != 1 {
		t.Errorf("batch.shed.queue_full = %d, want 1", snap.Counters["server.batch.shed.queue_full"])
	}
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestForcedDrain: when in-flight work outlives DrainTimeout, Run force-
// closes connections and reports the overrun instead of hanging forever.
func TestForcedDrain(t *testing.T) {
	inj, err := faultinject.New(faultinject.Config{
		Seed:      13,
		Rates:     map[faultinject.Fault]float64{faultinject.FaultSlow: 1},
		SlowDelay: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, url, cancel, errCh := startDaemon(t, Config{
		Workers:      1,
		Injector:     inj,
		DrainTimeout: 100 * time.Millisecond,
	})

	go http.Post(url+"/solve", "text/plain", strings.NewReader(sampleNet))
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Run returned nil; a stuck request must surface as a drain error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("forced drain still hung")
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["server.drain.forced"] != 1 {
		t.Fatalf("drain.forced = %d, want 1", snap.Counters["server.drain.forced"])
	}
}
