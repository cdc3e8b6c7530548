package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"buffopt/internal/guard"
	"buffopt/internal/server"
)

// TestUsageErrors: flag misuse — and a missing or malformed replica
// list — exits 2 without starting a listener.
func TestUsageErrors(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	cases := [][]string{
		{"-bogus-flag"},
		{},                                       // no replicas
		{"-replicas", " , ,"},                    // empty after trimming
		{"-replicas", "a:1,a:1"},                 // duplicate
		{"-replicas", "a:1", "-routing", "hash"}, // removed flag
		{"-replicas", "a:1", "-seed", "1"},       // removed flag
	}
	for _, args := range cases {
		if code := run(args, null); code != guard.ExitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, guard.ExitUsage)
		}
	}
}

// TestServeRouteAndSigtermDrain boots one real bufferd replica, fronts
// it with the real router process loop, solves a net through the router,
// then SIGTERMs and checks the router drains to exit code 0.
func TestServeRouteAndSigtermDrain(t *testing.T) {
	rep := httptest.NewServer(server.New(server.Config{Workers: 2, QueueDepth: 4}).Handler())
	defer rep.Close()
	repAddr := strings.TrimPrefix(rep.URL, "http://")

	logf, err := os.CreateTemp(t.TempDir(), "bufferfleet-stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()

	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-replicas", repAddr,
			"-probe-interval", "50ms",
			"-drain-timeout", "5s",
		}, logf)
	}()

	// The router logs its bound address; poll the log for it.
	addrRe := regexp.MustCompile(`replicas on (\S+)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			b, _ := os.ReadFile(logf.Name())
			t.Fatalf("router never logged its address; log:\n%s", b)
		}
		b, _ := os.ReadFile(logf.Name())
		if m := addrRe.FindSubmatch(b); m != nil {
			addr = string(m[1])
		}
		time.Sleep(10 * time.Millisecond)
	}
	base := "http://" + addr

	hr, err := http.Get(base + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hr, err)
	}
	hr.Body.Close()

	net, err := os.ReadFile("../../testdata/sample.net")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/solve", "text/plain", strings.NewReader(string(net)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed solve = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"tier"`) {
		t.Fatalf("response missing tier: %s", body)
	}

	sr, err := http.Get(base + "/fleet/status")
	if err != nil || sr.StatusCode != http.StatusOK {
		t.Fatalf("fleet/status: %v %v", sr, err)
	}
	sbody, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if !strings.Contains(string(sbody), repAddr) {
		t.Fatalf("fleet/status missing replica %s: %s", repAddr, sbody)
	}

	// SIGTERM the whole process: run's NotifyContext catches it and the
	// router drains its attempt ledger.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != guard.ExitOK {
			b, _ := os.ReadFile(logf.Name())
			t.Fatalf("exit code %d, want 0; log:\n%s", code, b)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router never exited after SIGTERM")
	}
	b, _ := os.ReadFile(logf.Name())
	if !strings.Contains(string(b), "drained cleanly") {
		t.Fatalf("log missing clean-drain line:\n%s", b)
	}
}
