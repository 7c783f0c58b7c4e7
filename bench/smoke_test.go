package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"sdwp/internal/webapi"
)

// smokeScale is a warehouse small enough for tier-1: the same workloads,
// a fiftieth of the facts, every fifth operation checked by the oracle.
var smokeScale = scale{stores: 200, sales: 8000, dashParams: 8, oracleEvery: 5}

// givenServer serves a fresh engine over w in process, as solapd would.
func givenServer(t *testing.T, w *world) (server, func()) {
	t.Helper()
	start := time.Now()
	engine, err := w.newEngine(solapdOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(webapi.NewServer(engine))
	closed := false
	stop := func() {
		if !closed {
			closed = true
			srv.Close()
			engine.Close()
		}
	}
	t.Cleanup(stop)
	return server{base: srv.URL, pid: os.Getpid(), setupS: time.Since(start).Seconds()}, stop
}

// TestSmoke runs every workload for a second against an in-process server
// and its traced replay, and checks what BENCHMARK.json promises: every
// metric it names is produced, finite and with a unit; no operation fails
// or disagrees with the oracle; the layer budget sums to the round trip.
func TestSmoke(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWorkloads(man); err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			srv, stop := givenServer(t, w)
			run, err := measure(w, wl, smokeScale, srv, stop,
				settings{seed: 1, seconds: 2, trace: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if run.failed != 0 || run.metrics["fail_ratio"] != 0 {
				t.Errorf("%d of %d operations failed: %v", run.failed, run.attempted, run.invalid)
			}
			if run.attempted < 10 {
				t.Errorf("only %d operations attempted", run.attempted)
			}
			seen := map[string]bool{}
			for _, def := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
				v, ok := run.metrics[def.Name]
				switch {
				case seen[def.Name]:
					t.Errorf("metric %s is named twice", def.Name)
				case !ok:
					t.Errorf("metric %s is not produced", def.Name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("metric %s is %v", def.Name, v)
				case def.Unit == "":
					t.Errorf("metric %s has no unit", def.Name)
				}
				seen[def.Name] = true
			}
			for _, def := range man.EndToEnd {
				if run.metrics[def.Name] <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", def.Name, run.metrics[def.Name])
				}
			}
			m := run.metrics
			sum := m["loadgen.net_ms"] + m["webapi.self_ms"] + m["core.self_ms"] + m["qsched.self_ms"] + m["cube.self_ms"]
			if rt := m["trace.roundtrip_ms"]; rt <= 0 || math.Abs(sum-rt) > 1e-9*rt {
				t.Errorf("layer budget sums to %v ms, round trip is %v ms", sum, rt)
			}
		})
	}
}

// TestStreamIsSeeded: the request stream is a function of the seed alone.
func TestStreamIsSeeded(t *testing.T) {
	w, err := buildWorld(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		a := streamBytes(wl, w.geo, smokeScale, 2, 7, 200)
		b := streamBytes(wl, w.geo, smokeScale, 2, 7, 200)
		c := streamBytes(wl, w.geo, smokeScale, 2, 8, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", wl.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same request stream", wl.name)
		}
	}
}

// streamBytes renders the first n operations of client 0's stream as the
// bytes that would be sent (with a fixed token), the form in which two
// streams are compared.
func streamBytes(w workload, g geo, sc scale, clients int, seed int64, n int) []byte {
	p := w.build(g, sc, clients, seed)
	rng := rand.New(rand.NewSource(streamSeed(seed, 0)))
	var out []byte
	for _, sess := range p.sessions {
		for _, st := range sess {
			out = appendWire(out, st)
		}
	}
	for i := 0; i < n; i++ {
		for _, st := range p.next(rng, 0).steps {
			out = appendWire(out, st)
		}
	}
	return out
}

func appendWire(out []byte, st step) []byte {
	m, path, body := st.wire("TOKEN")
	out = append(out, m...)
	out = append(out, ' ')
	out = append(out, path...)
	out = append(out, '\n')
	out = append(out, body...)
	return append(out, '\n')
}
