// Command solapd serves the spatial-data-warehouse personalization engine
// over HTTP: a synthetic warehouse (see internal/datagen), the paper's
// Fig. 4 user profile, and the Section 5 PRML rules (or a rule file of your
// own).
//
// Usage:
//
//	solapd [-addr :8080] [-seed 1] [-stores 300] [-sales 20000]
//	       [-rules file.prml] [-users alice=RegionalSalesManager,bob=Accountant]
//	       [-threshold 2]
//	       [-max-inflight-scans 2] [-result-cache-mb 32]
//	       [-fact-shards 0] [-query-timeout 0]
//	       [-trace-sample-rate 0] [-slow-query 0] [-pprof-addr ""]
//	       [-max-queue-depth 0] [-target-queue-wait 0]
//	       [-tenant-weights alice=2,bob=1]
//
// Every flag, its default, and how the knobs interact is documented in
// docs/OPERATIONS.md.
//
// On SIGINT or SIGTERM the daemon stops accepting connections, lets
// in-flight requests finish (for up to shutdownGrace), stops the query
// scheduler, saves the user profiles when -profiles is set, and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -pprof-addr listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sdwp"
	"sdwp/internal/cube"
)

const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// shutdownGrace bounds how long a signalled daemon waits for
	// in-flight requests before it stops the engine anyway.
	shutdownGrace = 30 * time.Second
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		seed      = flag.Int64("seed", 1, "dataset seed")
		cities    = flag.Int("cities", 0, "number of cities (0 = default)")
		stores    = flag.Int("stores", 0, "number of stores (0 = default)")
		sales     = flag.Int("sales", 0, "number of sales facts (0 = default)")
		rulesPath = flag.String("rules", "", "PRML rule file (default: the paper's Section 5 rules)")
		dataPath  = flag.String("data", "", "warehouse snapshot JSON (default: generate synthetic data; see sdwctl gen -out)")
		profiles  = flag.String("profiles", "", "user-profile JSON file: loaded at boot if present, saved on SIGINT/SIGTERM")
		usersSpec = flag.String("users", "alice=RegionalSalesManager,bob=Accountant",
			"comma-separated user=role assignments")
		threshold   = flag.Float64("threshold", 2, "designer threshold for the TrainAirportCity rule")
		maxInFlight = flag.Int("max-inflight-scans", 0,
			"concurrent shared scans the scheduler dispatches (0 = default)")
		cacheMB = flag.Int("result-cache-mb", 32,
			"personalized result cache size in MiB, keyed by query fingerprint + view epoch (0 = off)")
		factShards = flag.Int("fact-shards", 0,
			"hash-partition every fact table into N shards behind the scheduler (scatter-gather scans, per-shard ingest locks); 0 or 1 = single-table path")
		queryTimeout = flag.Duration("query-timeout", 0,
			"admission deadline: a query still queued this long is dropped with an error instead of executing late (0 = no deadline)")
		traceSampleRate = flag.Float64("trace-sample-rate", 0,
			"query-lifecycle tracing: probability a successful query's span tree is retained for GET /api/trace/{id} (errors and timeouts are always retained; 0 = tracing off)")
		slowQuery = flag.Duration("slow-query", 0,
			"log a structured warning for any query at or above this end-to-end latency, with trace ID and stage breakdown (0 = off)")
		pprofAddr = flag.String("pprof-addr", "",
			"serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
		maxQueueDepth = flag.Int("max-queue-depth", 0,
			"overload threshold on admission-queue depth: at or past it, over-share tenants get HTTP 429 + Retry-After instead of queueing toward the 504 deadline (0 = shedding off)")
		targetQueueWait = flag.Duration("target-queue-wait", 0,
			"overload threshold on smoothed admission wait: past it, over-share tenants are shed with 429; set well below -query-timeout (0 = off)")
		tenantWeights = flag.String("tenant-weights", "",
			"comma-separated user=weight fair-share weights (e.g. alice=2,bob=1); unlisted tenants weigh 1")
	)
	flag.Parse()

	cfg := sdwp.DefaultDataConfig()
	cfg.Seed = *seed
	if *cities > 0 {
		cfg.Cities = *cities
	}
	if *stores > 0 {
		cfg.Stores = *stores
	}
	if *sales > 0 {
		cfg.Sales = *sales
	}
	var warehouse *sdwp.Cube
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			log.Fatalf("open data: %v", err)
		}
		warehouse, err = cube.Read(f)
		f.Close()
		if err != nil {
			log.Fatalf("load data: %v", err)
		}
	} else {
		ds, err := sdwp.GenerateData(cfg)
		if err != nil {
			log.Fatalf("generate data: %v", err)
		}
		warehouse = ds.Cube
	}

	roles := map[string]string{}
	for _, pair := range strings.Split(*usersSpec, ",") {
		if pair == "" {
			continue
		}
		name, role, ok := strings.Cut(pair, "=")
		if !ok {
			log.Fatalf("bad -users entry %q (want user=role)", pair)
		}
		roles[strings.TrimSpace(name)] = strings.TrimSpace(role)
	}
	users, err := sdwp.NewSalesUserStore(roles)
	if err != nil {
		log.Fatalf("user store: %v", err)
	}

	var weights map[string]float64
	for _, pair := range strings.Split(*tenantWeights, ",") {
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			log.Fatalf("bad -tenant-weights entry %q (want user=weight)", pair)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			log.Fatalf("bad -tenant-weights entry %q (weight must be a positive number)", pair)
		}
		if weights == nil {
			weights = map[string]float64{}
		}
		weights[strings.TrimSpace(name)] = w
	}

	engine := sdwp.NewEngine(warehouse, users, sdwp.EngineOptions{
		MaxInFlightScans:   *maxInFlight,
		ResultCacheBytes:   int64(*cacheMB) << 20,
		FactShards:         *factShards,
		QueryTimeout:       *queryTimeout,
		TraceSampleRate:    *traceSampleRate,
		SlowQueryThreshold: *slowQuery,
		MaxQueueDepth:      *maxQueueDepth,
		TargetQueueWait:    *targetQueueWait,
		TenantWeights:      weights,
	})
	engine.SetParam("threshold", sdwp.Number(*threshold))

	src := sdwp.PaperRules
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			log.Fatalf("read rules: %v", err)
		}
		src = string(data)
	}
	rules, err := engine.AddRules(src)
	if err != nil {
		log.Fatalf("rules: %v", err)
	}

	// Profile persistence: the user model accumulates interest degrees
	// across sessions; deployments keep it on disk (saved on shutdown).
	if *profiles != "" {
		if data, err := os.ReadFile(*profiles); err == nil {
			if err := json.Unmarshal(data, users); err != nil {
				log.Fatalf("load profiles: %v", err)
			}
			fmt.Printf("solapd: loaded %d user profiles from %s\n", users.Len(), *profiles)
		} else if !os.IsNotExist(err) {
			log.Fatalf("read profiles: %v", err)
		}
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	// The profiling listener is separate from the API address (and off by
	// default) so pprof is never reachable from the API's exposure. The
	// blank net/http/pprof import registered its handlers on
	// http.DefaultServeMux, which only this listener serves.
	if *pprofAddr != "" {
		go func() {
			fmt.Printf("solapd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			log.Fatal(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	fmt.Printf("solapd: %d stores / %d cities / %d facts, %d rules, %d users, %d fact shard(s)\n",
		cfg.Stores, cfg.Cities, warehouse.FactData("Sales").Len(), len(rules), len(roles),
		engine.FactShards())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solapd: listening on %s\n", *addr)
	srv := &http.Server{Handler: sdwp.NewHTTPServer(engine), ReadHeaderTimeout: readHeaderTimeout}
	if err := serve(srv, ln, sigs, engine, users, *profiles); err != nil {
		log.Fatal(err)
	}
}

// serve serves srv on ln until a signal arrives on sigs, then shuts down
// in order: stop accepting connections and wait up to shutdownGrace for
// in-flight requests, stop the engine's query scheduler, and save the
// user profiles to profilesPath unless it is empty. Profiles are saved
// even when the drain times out; the error reports both.
func serve(srv *http.Server, ln net.Listener, sigs <-chan os.Signal, engine *sdwp.Engine, users *sdwp.UserStore, profilesPath string) error {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case sig := <-sigs:
		fmt.Printf("\nsolapd: %v: draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	<-served // http.ErrServerClosed, once Shutdown has closed ln
	engine.Close()
	if profilesPath == "" {
		return drainErr
	}
	data, err := json.MarshalIndent(users, "", "  ")
	if err == nil {
		err = os.WriteFile(profilesPath, data, 0o644)
	}
	if err != nil {
		return errors.Join(drainErr, fmt.Errorf("save profiles: %w", err))
	}
	fmt.Printf("solapd: saved %d user profiles to %s\n", users.Len(), profilesPath)
	return drainErr
}
