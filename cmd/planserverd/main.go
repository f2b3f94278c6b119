// Command planserverd serves the query planner — and the streaming
// executor — over HTTP/JSON against the TPC-R schema: the
// traffic-facing daemon over the reentrant planner layer:
//
//	planserverd                      # listen on :7432
//	planserverd -addr :8080 -max-inflight 128
//	planserverd -prepared-cache -1   # every request prepares and plans cold
//	planserverd -no-exec             # planning only, no /execute
//	planserverd -timeout 2s -mem-budget 268435456
//	                                 # 2s default deadline; datasets and pipelines share
//	                                 # 256 MiB, idle datasets LRU-evicted to stay inside
//
//	curl -s localhost:7432/plan -d '{"sql": "select * from nation, region where n_regionkey = r_regionkey order by n_name"}'
//	curl -s 'localhost:7432/explain?q=select * from orders, customer where o_custkey = c_custkey'
//	curl -s localhost:7432/execute -d '{"sql": "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey", "dataset": "tpcr-mid", "maxRows": 3}'
//	curl -sN localhost:7432/execute -d '{"sql": "select * from orders, lineitem where o_orderkey = l_orderkey order by o_orderkey", "dataset": "tpcr-mid", "stream": true}'
//	curl -s localhost:7432/stats
//	curl -s localhost:7432/healthz
//
// /execute runs the chosen plan over a registered synthetic TPC-R
// dataset (tpcr-small, tpcr-mid, tpcr-large) through the streaming
// executor — buffered JSON by default, chunked NDJSON frames with
// "stream": true. Datasets are generated on first use and charged to
// -mem-budget next to the running pipelines; idle ones are LRU-evicted
// when a load or a build table needs their room. Note the planner
// costs plans against the schema's scale-factor-1 statistics while the
// datasets are miniatures — /execute demonstrates and validates plans;
// the runtime experiments (experiments -table exec) plan against
// restated dataset statistics instead.
//
// The daemon serves one configuration: the DFSM order framework, DPccp
// enumeration, the auto planning tier. The Simmen baseline, the naive
// enumerator and forced tiers are oracles for tests and the paper
// tables (cmd/experiments), not serving options.
//
// SIGTERM/SIGINT drain gracefully: /healthz flips to 503 so load
// balancers stop routing, new planning requests are rejected, and the
// process exits once in-flight requests finish (bounded by
// -drain-timeout). See docs/api.md for the full endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/planner"
	"orderopt/internal/server"
	"orderopt/internal/tpcr"
)

// A client gets this long to send its request head and, at most
// 1 MiB (the server's body cap), its whole request: a peer that opens a
// connection and stalls cannot hold it forever. Responses carry no
// write deadline — a streamed /execute is bounded by -timeout instead.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
)

func main() {
	addr := flag.String("addr", ":7432", "listen address")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight,
		"max concurrent planning requests before 429 shedding (negative disables)")
	preparedCache := flag.Int("prepared-cache", planner.DefaultPreparedCacheSize,
		"prepared-statement cache entries, each keeping its statement's plan (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second,
		"how long a SIGTERM drain waits for in-flight requests")
	noExec := flag.Bool("no-exec", false, "disable /execute")
	timeout := flag.Duration("timeout", 0,
		"default per-request deadline for requests without timeoutMs (0 means none)")
	maxTimeout := flag.Duration("max-timeout", server.DefaultMaxTimeout,
		"clamp on client-supplied timeoutMs and -timeout")
	memBudget := flag.Int64("mem-budget", 0,
		"bytes resident datasets and all concurrent /execute pipelines may hold together: idle datasets are evicted, then requests get 429 (0 means unlimited)")
	queryMemBudget := flag.Int64("query-mem-budget", 0,
		"bytes one /execute pipeline may materialize before 429 (0 means unlimited)")
	workers := flag.Int("workers", 0,
		"max morsel workers per query: the optimizer plans exchanges up to this DOP and /execute clamps to it (0 means GOMAXPROCS, 1 disables parallel plans)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"planserverd serves /plan, /explain, /execute, /stats and /healthz over the TPC-R schema — see docs/api.md and README.md.")
		flag.PrintDefaults()
	}
	flag.Parse()

	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}

	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer.MaxDOP = nw
	cfg.PreparedCacheSize = *preparedCache

	var datasets *exec.Registry
	if !*noExec {
		datasets = exec.TPCRLazyRegistry()
	}
	srv := server.New(server.Config{
		Planner:        planner.New(cfg),
		MaxInFlight:    *maxInFlight,
		Datasets:       datasets,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MemLimitBytes:  *memBudget,
		QueryBudget:    exec.Budget{MaxBytes: *queryMemBudget},
		Workers:        nw,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv,
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Shutdown makes ListenAndServe return immediately while in-flight
	// handlers are still finishing, so main must wait on drained — not
	// just on ListenAndServe — before exiting.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("planserverd: draining (up to %v)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Wait for running pipelines first — Shutdown only waits for
		// connections, and a budget- or deadline-bounded pipeline may
		// still be mid-flight when its response write completes.
		if err := srv.DrainAndWait(shutdownCtx); err != nil {
			log.Printf("planserverd: requests still in flight after %v: %v", *drainTimeout, err)
		}
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("planserverd: drain incomplete: %v", err)
			httpSrv.Close()
		}
	}()

	execInfo := "disabled"
	if datasets != nil {
		execInfo = fmt.Sprintf("datasets %v (on-demand)", datasets.Names())
	}
	log.Printf("planserverd: serving TPC-R planning on %s (max-inflight=%d workers=%d, execute: %s)",
		*addr, *maxInFlight, nw, execInfo)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("planserverd: %v", err)
	}
	<-drained
	log.Printf("planserverd: drained, exiting")
}
