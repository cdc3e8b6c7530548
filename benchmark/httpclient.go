package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"buffopt/internal/fleet"
	"buffopt/internal/server"
)

// bufferdConfig is a replica with bufferd's flag defaults. They must be
// spelled out: server.Config's zero value disables the result cache.
func bufferdConfig() server.Config {
	return server.Config{QueueDepth: 64, MaxBatch: 64, CacheEntries: 4096, CacheBytes: 256 << 20}
}

// startLab stands up 2 bufferd replicas behind the router, over loopback
// TCP; the router runs with its defaults.
func startLab() (*fleet.Lab, error) {
	return fleet.StartLab(fleet.LabConfig{Replicas: 2, Server: bufferdConfig()})
}

// startReplica serves one bufferd replica on a loopback port until stop
// is called; stop returns once the server has drained and exited.
func startReplica() (url string, stop func() error, err error) {
	cfg := bufferdConfig()
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	select {
	case <-srv.Ready():
	case err := <-done:
		cancel()
		return "", nil, fmt.Errorf("replica failed to start: %w", err)
	}
	return "http://" + srv.Addr(), func() error {
		cancel()
		return <-done
	}, nil
}

// newClient returns an HTTP client that holds at most conns connections
// per host, one per goroutine that posts through it.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}
}

// post sends body and returns the status and the whole reply.
func post(c *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// postJSON posts a JSON body and decodes a 200 reply into out.
func postJSON(c *http.Client, url string, body []byte, out any) error {
	status, raw, err := post(c, url, "application/json", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// encodeResponse encodes a reply the way bufferd's handlers do.
func encodeResponse(v any) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
