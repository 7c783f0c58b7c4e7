package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"sdwp"
)

// notifyListener closes closed once the server has closed it.
type notifyListener struct {
	net.Listener
	once   sync.Once
	closed chan struct{}
}

func (l *notifyListener) Close() error {
	err := l.Listener.Close()
	l.once.Do(func() { close(l.closed) })
	return err
}

// TestServeDrainsOnSignal signals a serving daemon while a request is in
// flight: the listener closes at once, so new connections are refused, the
// in-flight request still completes with 200, and serve returns after
// saving the user profiles.
func TestServeDrainsOnSignal(t *testing.T) {
	cfg := sdwp.DefaultDataConfig()
	cfg.Cities, cfg.Stores, cfg.Customers, cfg.Sales = 6, 12, 8, 40
	ds, err := sdwp.GenerateData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := sdwp.NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"})
	if err != nil {
		t.Fatal(err)
	}
	engine := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{})
	api := sdwp.NewHTTPServer(engine)

	// GET /slow is a health check that waits for release.
	started, release := make(chan struct{}), make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
			r.URL.Path = "/api/healthz"
		}
		api.ServeHTTP(w, r)
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &notifyListener{Listener: inner, closed: make(chan struct{})}
	addr := ln.Addr().String()
	profiles := filepath.Join(t.TempDir(), "profiles.json")
	sigs := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() {
		srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
		served <- serve(srv, ln, sigs, engine, users, profiles)
	}()

	type result struct {
		status int
		body   string
		err    error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			inFlight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		inFlight <- result{resp.StatusCode, string(body), err}
	}()
	<-started
	sigs <- syscall.SIGTERM
	<-ln.closed
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("a new connection was accepted after the signal")
	}
	close(release)
	if r := <-inFlight; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d, body %q, error %v; want 200", r.status, r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	data, err := os.ReadFile(profiles)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := sdwp.NewSalesUserStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, saved); err != nil || saved.Len() != users.Len() {
		t.Fatalf("saved profiles: %d users, error %v; want %d", saved.Len(), err, users.Len())
	}
}
