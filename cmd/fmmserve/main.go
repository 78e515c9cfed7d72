// Command fmmserve runs the FMM evaluation service: an HTTP/JSON server
// with a plan cache (octree + interaction lists + operators reused across
// requests), admission with backpressure (at most -workers concurrent
// evaluations, -queue more requests waiting, 429 beyond), per-request
// deadlines that stop the work they end, and Prometheus-style metrics.
//
//	fmmserve -addr :8344 -workers 8 -queue 128
//
//	curl -s localhost:8344/v1/plan -d '{"points":[[0.1,0.2,0.3],...]}'
//	curl -s localhost:8344/v1/evaluate -d '{"plan_id":"...","densities":[...]}'
//	curl -s localhost:8344/metrics
//
// Moving-points workloads (e.g. a particle time-stepper) open a session:
// the server keeps the points by ID and re-plans them at every delta, with
// the translation operators and spectra shared process-wide:
//
//	curl -s localhost:8344/v1/session -d '{"points":[[0.1,0.2,0.3],...]}'
//	curl -s localhost:8344/v1/session/<id>/step \
//	    -d '{"move":[{"id":0,"to":[0.11,0.2,0.3]}],"densities":[...]}'
//	curl -s -X DELETE localhost:8344/v1/session/<id>
//
// Sessions are capped by -max-sessions (429 beyond it) and expire after
// -session-ttl idle. They take the solver options of a plan, shards
// included; targets are refused.
//
// "options":{"shards":R} serves a plan sharded across R in-process ranks
// (at most -max-shards; any R), each Apply a coordinated multi-rank
// evaluation whose shared octants are reduced in one point-to-point round;
// /metrics carries the per-rank traffic as fmmserve_shard_*{backend="simple",
// rank="r"}. "shard_comm" is decoded for the clients that send it: "simple",
// the one reduction, changes nothing; any other value is a 400.
//
// With -trace-dir set, every evaluation additionally dumps a Chrome
// trace_event JSON of the task-graph scheduler's execution (one timeline
// row per worker, one slice per per-octant task) into the directory,
// keeping the newest -trace-keep files (oldest deleted). To inspect one,
// open chrome://tracing in Chrome (or https://ui.perfetto.dev) and load
// eval-NNNNNN.trace.json — phase overlap, the workers' share of each phase,
// and idle gaps are directly visible.
//
//	fmmserve -addr :8344 -trace-dir /tmp/fmm-traces -trace-keep 16
//
// SIGINT/SIGTERM triggers a graceful drain: admission stops, every admitted
// request completes, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"kifmm/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent evaluations")
		queue      = flag.Int("queue", 64, "admission queue depth (beyond this, 429)")
		cachePlans = flag.Int("cache-plans", 32, "plan cache entry bound")
		cacheBytes = flag.Int64("cache-bytes", 1<<30, "plan cache resident-size bound")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		drainWait  = flag.Duration("drain", 2*time.Minute, "graceful shutdown drain limit")
		traceDir   = flag.String("trace-dir", "", "dump a Chrome trace JSON per evaluation into this directory (see chrome://tracing)")
		traceKeep  = flag.Int("trace-keep", 32, "trace files retained in -trace-dir (oldest deleted)")
		maxShards  = flag.Int("max-shards", 16, "per-request shard count cap (options.shards beyond this, 400)")
		maxSess    = flag.Int("max-sessions", 16, "concurrent moving-points session cap (beyond this, 429)")
		sessTTL    = flag.Duration("session-ttl", 10*time.Minute, "idle session lifetime (each step resets it)")
		maxBody    = flag.Int64("max-body", 256<<20, "request body size cap in bytes (beyond this, 413)")
	)
	flag.Parse()

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheMaxPlans:  *cachePlans,
		CacheMaxBytes:  *cacheBytes,
		RequestTimeout: *timeout,
		TraceDir:       *traceDir,
		TraceKeep:      *traceKeep,
		MaxShards:      *maxShards,
		MaxSessions:    *maxSess,
		SessionTTL:     *sessTTL,
		MaxBodyBytes:   *maxBody,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("fmmserve listening on %s (workers=%d queue=%d cache=%d plans/%d bytes)",
		*addr, *workers, *queue, *cachePlans, *cacheBytes)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("draining (limit %v)...", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := svc.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("fmmserve stopped")
}
