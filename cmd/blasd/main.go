// Command blasd is the resident BLAS query server: a long-lived daemon
// over one shredded store, with plan and result caches, admission
// control and graceful shutdown. It is the serving tier over the blas
// library — where blasquery answers one query and exits, blasd holds
// the store (and its warm buffer pools and caches) open for sustained
// traffic.
//
// # Usage
//
//	blasd -dir catalog.blas                 # serve a store built by blasload
//	blasd -xml catalog.xml                  # shred an XML file in memory and serve it
//	blasd -dataset auction -factor 2        # serve a generated paper data set
//	blasd -addr :8080 -max-inflight 64 -parallel-budget 16 -timeout 30s
//
// Exactly one of -dir, -xml, -dataset selects the store.
//
// # Endpoints
//
//	POST   /query       execute an XPath expression
//	GET    /healthz     200 {"status":"ok","generation":N}; 503 {"status":"draining"} while draining
//	GET    /metrics     expvar-compatible JSON: {"blas": <store metrics>, "blasd": <server metrics>}
//	GET    /debug/vars  same payload as /metrics
//	DELETE /cache       drop cached results (?scope=plans / ?scope=all for the plan cache too)
//
// # POST /query
//
// Request body (only "query" is required):
//
//	{
//	  "query":           "/site/people/person/name",
//	  "engine":          "relational" | "twig",
//	  "translator":      "auto" | "dlabel" | "split" | "pushup" | "unfold",
//	  "parallelism":     4,        // relational D-join workers, 0 = GOMAXPROCS; the server may grant less
//	  "trace":           false,    // per-phase breakdown in stats.phases (bypasses result cache)
//	  "no_result_cache": false
//	}
//
// Success response:
//
//	{
//	  "query":       "/site/people/person/name",   // normalized form
//	  "count":       255,
//	  "matches":     [{"start":..,"end":..,"level":..,"tag":..,"value":..,"path":..}, ...],
//	  "stats":       { ... blas.ExecStats JSON ... },
//	  "cached":      false,   // served from the result cache
//	  "plan_cached": true,    // no parse/translate work was done
//	  "plan_ns":     0,       // planning time this request paid
//	  "parallelism": 4        // workers actually granted (1 for twig)
//	}
//
// Errors are {"error": "..."} with 400 (bad request/query), 413 (body
// too large), 429 + Retry-After (admission limit reached), 503
// (draining or store closed), 504 (query timeout).
//
// # Shutdown
//
// On SIGTERM or SIGINT blasd drains gracefully: new queries are
// rejected with 503, in-flight queries run to completion (bounded by
// -drain-timeout), then the store is flushed and closed.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	blas "repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "serve the store directory built by blasload")
	xml := flag.String("xml", "", "shred this XML file in memory and serve it")
	dataset := flag.String("dataset", "", "serve a generated data set: shakespeare, protein or auction")
	factor := flag.Int("factor", 1, "data scale factor for -dataset")
	seed := flag.Int64("seed", 1, "data generator seed for -dataset")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently executing queries, 429 beyond (0 = 4*GOMAXPROCS)")
	budget := flag.Int("parallel-budget", 0, "global worker budget shared by all queries (0 = 2*GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query timeout, 504 beyond (0 = none)")
	planCache := flag.Int("plan-cache", 0, "prepared-plan cache entries (0 = 256, negative disables)")
	resultEntries := flag.Int("result-cache-entries", 0, "result cache entries (0 = 256, negative disables)")
	resultBytes := flag.Int64("result-cache-bytes", 0, "result cache byte budget (0 = 64 MiB)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	flag.Parse()

	store, desc, err := openStore(*dir, *xml, *dataset, *factor, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blasd:", err)
		os.Exit(1)
	}

	srv := server.New(store, server.Config{
		MaxInFlight:        *maxInFlight,
		ParallelismBudget:  *budget,
		QueryTimeout:       *timeout,
		PlanCacheEntries:   *planCache,
		ResultCacheEntries: *resultEntries,
		ResultCacheBytes:   *resultBytes,
	})
	expvar.Publish("blas", expvar.Func(func() any { return srv.Store().Metrics() }))
	expvar.Publish("blasd", expvar.Func(func() any { return srv.Metrics() }))

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "blasd: serving %s on %s (generation %d)\n", desc, *addr, store.Generation())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		if cerr := store.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "blasd: close:", cerr)
		}
		fmt.Fprintln(os.Stderr, "blasd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: reject new queries, let in-flight ones finish,
	// then flush and close the store.
	fmt.Fprintln(os.Stderr, "blasd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.BeginDrain()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "blasd: shutdown:", err)
	}
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "blasd: drain:", err)
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "blasd: close:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "blasd: stopped")
}

// openStore resolves the mutually exclusive store sources.
func openStore(dir, xml, dataset string, factor int, seed int64) (*blas.Store, string, error) {
	sources := 0
	for _, s := range []string{dir, xml, dataset} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", errors.New("exactly one of -dir, -xml, -dataset is required")
	}
	switch {
	case dir != "":
		st, err := blas.Open(blas.Options{Dir: dir})
		return st, "store " + dir, err
	case xml != "":
		st, err := blas.BuildFromFile(xml, blas.Options{})
		return st, "document " + xml, err
	default:
		var doc strings.Builder
		if err := blas.GenerateDataset(&doc, dataset, blas.DatasetOptions{Seed: seed, Factor: factor}); err != nil {
			return nil, "", err
		}
		st, err := blas.BuildFromString(doc.String(), blas.Options{})
		return st, fmt.Sprintf("dataset %s x%d", dataset, factor), err
	}
}
