package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kifmm"
	"kifmm/internal/diag"
)

// Service-level phases accumulated into the server profile alongside the
// engine's per-phase timings (both surface on /metrics).
const (
	phasePlanBuild   = "PlanBuild"
	phaseApply       = "Apply"
	phaseQueueWait   = "QueueWait"
	phaseSessionStep = "SessionStep"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent evaluations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the requests admitted to wait for one of the
	// Workers; requests arriving beyond it are rejected with 429 (default
	// 64).
	QueueDepth int
	// CacheMaxPlans bounds the plan cache entry count (default 32).
	CacheMaxPlans int
	// CacheMaxBytes bounds the plan cache's estimated resident size
	// (default 1 GiB).
	CacheMaxBytes int64
	// RequestTimeout is the per-request deadline covering queue wait and
	// evaluation (default 60s). Requests may tighten it via timeout_ms.
	RequestTimeout time.Duration
	// TraceDir, when non-empty, dumps a Chrome trace_event JSON of the
	// scheduler's execution for every evaluation request into this
	// directory (bounded by TraceKeep, oldest deleted).
	TraceDir string
	// TraceKeep bounds the number of retained trace files (default 32).
	TraceKeep int
	// MaxShards caps the per-request shard count (Options.Shards); requests
	// beyond it are rejected with 400 (default 16). Each shard holds its own
	// local essential tree and engine state, so this bounds the per-plan
	// memory amplification a single request can demand.
	MaxShards int
	// MaxSessions caps concurrent moving-points sessions; creation beyond it
	// is rejected with 429 (default 16).
	MaxSessions int
	// SessionTTL is the idle lifetime of a session; every step refreshes the
	// timer and an expired session is reclaimed by a janitor (default 10m).
	SessionTTL time.Duration
	// MaxBodyBytes bounds request body size; oversized bodies are rejected
	// with 413 (default 256 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheMaxPlans <= 0 {
		c.CacheMaxPlans = 32
	}
	if c.CacheMaxBytes <= 0 {
		c.CacheMaxBytes = 1 << 30
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 16
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	return c
}

// Server is the fmmserve HTTP handler: plan cache + admission + metrics.
// Create with New, serve with net/http, stop with Shutdown.
type Server struct {
	cfg      Config
	cache    *PlanCache
	sessions *sessionRegistry
	prof     *diag.Profile
	traces   *traceSink
	mux      *http.ServeMux
	start    time.Time

	// Admission (serve): admitted holds a token per admitted request, at
	// most Workers + QueueDepth; running holds one per request evaluating,
	// at most Workers. mu orders admission against the drain, which sets
	// draining and then waits out inflight.
	admitted chan struct{}
	running  chan struct{}
	mu       sync.Mutex
	draining atomic.Bool
	inflight sync.WaitGroup

	completed, rejected, expired atomic.Int64

	// Session steps (cumulative across live and closed sessions; surfaced on
	// /metrics as fmmserve_session_steps_total).
	sessSteps atomic.Int64

	// Plan builds (surfaced on /metrics as fmmserve_plans_built_total).
	plansBuilt atomic.Int64
}

// New builds a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    NewPlanCache(cfg.CacheMaxPlans, cfg.CacheMaxBytes),
		prof:     diag.NewProfile(),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		admitted: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		running:  make(chan struct{}, cfg.Workers),
	}
	if cfg.TraceDir != "" {
		sink, err := newTraceSink(cfg.TraceDir, cfg.TraceKeep)
		if err != nil {
			// A broken trace dir must not take the service down; log via
			// the profile-free path and serve without tracing.
			fmt.Fprintf(os.Stderr, "fmmserve: tracing disabled: %v\n", err)
		} else {
			s.traces = sink
		}
	}
	s.sessions = newSessionRegistry(cfg.MaxSessions, cfg.SessionTTL)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/session/{id}/step", s.handleSessionStep)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: new work is rejected with 503 while every
// already-admitted request runs to completion. It returns ctx's error if
// the drain outlives the context's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.sessions.close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body under the server's size cap,
// answering 413 (not 400) when the cap is what failed the read. The body is
// decoded strictly: an unknown field (a misspelt "no_cache" would otherwise
// be ignored) or anything but white space after the one JSON value is a 400
// naming the problem. Reports false after writing the error response.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, &tooBig) {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

// serve answers one request with fn's result, run on the request's own
// goroutine once the request is admitted and holds one of the Workers slots,
// under ctx with the request's deadline. It answers 503 while draining,
// 429 + Retry-After beyond Workers + QueueDepth admitted requests or when fn
// fails with errAtCapacity, 504 when the deadline fires while queued or while
// fn runs (fn's error then wraps ctx.Err()), 400 with any other error of fn,
// and 200 with fn's result as JSON. A request stays admitted, and Shutdown
// waits for it, until its answer is written.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, timeout time.Duration, fn func(ctx context.Context) (any, error)) {
	if !s.admit(w) {
		return
	}
	defer s.inflight.Done()
	defer func() { <-s.admitted }()
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	enqueued := time.Now()
	select {
	case s.running <- struct{}{}:
	case <-ctx.Done():
		s.expired.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline expired while queued")
		return
	}
	s.prof.AddTime(phaseQueueWait, time.Since(enqueued))
	res, err := func() (any, error) {
		defer func() { <-s.running }()
		return fn(ctx)
	}()
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		s.expired.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline expired after %v: %v", timeout, err)
		return
	}
	s.completed.Add(1)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, errAtCapacity):
		retryLater(w, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// errAtCapacity marks an error of a bounded resource that frees up in time;
// serve answers it 429 + Retry-After.
var errAtCapacity = errors.New("capacity reached")

// admit takes an admission token, or answers 503 (draining) or 429 (full)
// and reports false. An admitted request is one the drain waits for.
func (s *Server) admit(w http.ResponseWriter) bool {
	s.mu.Lock()
	draining, admitted := s.draining.Load(), false
	if !draining {
		select {
		case s.admitted <- struct{}{}:
			s.inflight.Add(1)
			admitted = true
		default:
		}
	}
	s.mu.Unlock()
	switch {
	case draining:
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case !admitted:
		s.rejected.Add(1)
		retryLater(w, "admission queue full (%d in flight)", cap(s.admitted))
	}
	return admitted
}

// retryAfter is the Retry-After hint, in seconds, on every 429.
const retryAfter = "1"

// retryLater answers 429 with the Retry-After hint.
func retryLater(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfter)
	writeError(w, http.StatusTooManyRequests, format, args...)
}

// checkOptions rejects requests whose options fail Validate, or whose shard
// count exceeds the server cap (the per-shard LET + engine state amplifies
// plan memory). Reports false after writing the 400.
func (s *Server) checkOptions(w http.ResponseWriter, opts SolverOptions) bool {
	if err := opts.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "options: %v", err)
		return false
	}
	if opts.Shards > s.cfg.MaxShards {
		writeError(w, http.StatusBadRequest, "shards %d exceeds server cap %d", opts.Shards, s.cfg.MaxShards)
		return false
	}
	return true
}

func (s *Server) timeout(requestMS int) time.Duration {
	d := s.cfg.RequestTimeout
	if requestMS > 0 {
		if t := time.Duration(requestMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// buildPlan constructs the solver and plan for a point set — the cold path
// a cache hit skips. Its errors say "plan:".
func (s *Server) buildPlan(ctx context.Context, id string, pts [][3]float64, opts SolverOptions) (*CachedPlan, error) {
	defer s.prof.Start(phasePlanBuild)()
	solver, err := kifmm.New(opts.ToOptions())
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	s.plansBuilt.Add(1)
	plan, err := solver.PlanAt(ctx, ToPoints(opts.Targets), ToPoints(pts))
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return &CachedPlan{
		ID:        id,
		Solver:    solver,
		Plan:      plan,
		NumPoints: plan.NumPoints(),
		Bytes:     plan.MemoryBytes(),
	}, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "no points")
		return
	}
	if !s.checkOptions(w, req.Options) {
		return
	}
	id := PlanKey(req.Points, req.Options)
	if entry, ok := s.cache.Get(id); ok {
		writeJSON(w, http.StatusOK, planResponse(entry, true))
		return
	}
	s.serve(w, r, s.cfg.RequestTimeout, func(ctx context.Context) (any, error) {
		entry, err := s.buildPlan(ctx, id, req.Points, req.Options)
		if err != nil {
			return nil, err
		}
		s.cache.Put(entry)
		return planResponse(entry, false), nil
	})
}

func planResponse(e *CachedPlan, cached bool) PlanResponse {
	return PlanResponse{
		PlanID:       e.ID,
		NumPoints:    e.NumPoints,
		DensityDim:   e.Solver.DensityDim(),
		PotentialDim: e.Solver.PotentialDim(),
		Cached:       cached,
		MemoryBytes:  e.Bytes,
	}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Densities) == 0 {
		writeError(w, http.StatusBadRequest, "no densities")
		return
	}

	// Resolve the plan: by ID, from the cache by content, or cold-build.
	var (
		entry *CachedPlan
		hit   bool
	)
	id := req.PlanID
	switch {
	case id != "":
		if len(req.Points) > 0 {
			writeError(w, http.StatusBadRequest, "give plan_id or points, not both")
			return
		}
		entry, hit = s.cache.Get(id)
		if !hit {
			writeError(w, http.StatusNotFound, "unknown plan %q (expired or never built)", id)
			return
		}
	case len(req.Points) > 0:
		if !s.checkOptions(w, req.Options) {
			return
		}
		id = PlanKey(req.Points, req.Options)
		if !req.NoCache {
			entry, hit = s.cache.Get(id)
		}
	default:
		writeError(w, http.StatusBadRequest, "no plan_id and no points")
		return
	}

	s.serve(w, r, s.timeout(req.TimeoutMS), func(ctx context.Context) (any, error) {
		t0 := time.Now()
		if entry == nil {
			built, err := s.buildPlan(ctx, id, req.Points, req.Options)
			if err != nil {
				return nil, err
			}
			if !req.NoCache {
				s.cache.Put(built)
			}
			entry = built
		}
		pots, err := s.apply(ctx, entry.Plan, req.Densities)
		if err != nil {
			return nil, fmt.Errorf("evaluate: %w", err)
		}
		return EvaluateResponse{
			PlanID:     id,
			Potentials: pots,
			CacheHit:   hit,
			ElapsedMS:  float64(time.Since(t0)) / float64(time.Millisecond),
		}, nil
	})
}

// apply evaluates one density vector on a plan under ctx, into the profile's
// Apply phase, and folds the Apply's record into the profile. With a trace
// directory it runs ApplyTraced (the task-graph scheduler at any worker
// count) and writes the trace; sharded plans coordinate their ranks
// themselves and are not traced.
func (s *Server) apply(ctx context.Context, plan *kifmm.Plan, densities []float64) ([]float64, error) {
	defer s.prof.Start(phaseApply)()
	if s.traces == nil || plan.Shards() > 0 {
		pots, rec, err := plan.ApplyWithStats(ctx, densities)
		rec.MergeInto(s.prof)
		return pots, err
	}
	pots, traceJSON, rec, err := plan.ApplyTraced(ctx, densities)
	rec.MergeInto(s.prof)
	if err == nil {
		if _, werr := s.traces.Write(traceJSON); werr != nil {
			fmt.Fprintf(os.Stderr, "fmmserve: trace write: %v\n", werr)
		}
	}
	return pots, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "fmmserve_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(w, "fmmserve_draining %d\n", boolGauge(s.draining.Load()))
	fmt.Fprintf(w, "fmmserve_plan_cache_plans %d\n", cs.Plans)
	fmt.Fprintf(w, "fmmserve_plan_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "fmmserve_plan_cache_max_plans %d\n", cs.MaxPlans)
	fmt.Fprintf(w, "fmmserve_plan_cache_max_bytes %d\n", cs.MaxBytes)
	fmt.Fprintf(w, "fmmserve_plan_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "fmmserve_plan_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "fmmserve_plan_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "fmmserve_plans_built_total %d\n", s.plansBuilt.Load())
	busy := len(s.running)
	fmt.Fprintf(w, "fmmserve_workers %d\n", s.cfg.Workers)
	fmt.Fprintf(w, "fmmserve_workers_busy %d\n", busy)
	fmt.Fprintf(w, "fmmserve_queue_capacity %d\n", s.cfg.QueueDepth)
	fmt.Fprintf(w, "fmmserve_queue_depth %d\n", max(0, len(s.admitted)-busy))
	fmt.Fprintf(w, "fmmserve_tasks_completed_total %d\n", s.completed.Load())
	fmt.Fprintf(w, "fmmserve_tasks_rejected_total %d\n", s.rejected.Load())
	// Deadlines that fired while a request was queued or while it ran.
	fmt.Fprintf(w, "fmmserve_tasks_expired_total %d\n", s.expired.Load())
	tf := kifmm.TranslationCache()
	fmt.Fprintf(w, "fmmserve_tf_cache_hits_total %d\n", tf.Hits)
	fmt.Fprintf(w, "fmmserve_tf_cache_misses_total %d\n", tf.Misses)
	fmt.Fprintf(w, "fmmserve_tf_cache_evictions_total %d\n", tf.Evictions)
	fmt.Fprintf(w, "fmmserve_tf_cache_entries %d\n", tf.Entries)
	fmt.Fprintf(w, "fmmserve_tf_cache_bytes %d\n", tf.Size)
	fmt.Fprintf(w, "fmmserve_tf_cache_max_bytes %d\n", tf.Max)
	oc := kifmm.OperatorCache()
	fmt.Fprintf(w, "fmmserve_operator_cache_hits_total %d\n", oc.Hits)
	fmt.Fprintf(w, "fmmserve_operator_cache_misses_total %d\n", oc.Misses)
	fmt.Fprintf(w, "fmmserve_operator_cache_evictions_total %d\n", oc.Evictions)
	fmt.Fprintf(w, "fmmserve_operator_cache_entries %d\n", oc.Entries)
	if s.traces != nil {
		fmt.Fprintf(w, "fmmserve_traces_written_total %d\n", s.traces.Written())
	}
	fmt.Fprintf(w, "fmmserve_max_shards %d\n", s.cfg.MaxShards)
	ss := s.sessions.stats()
	fmt.Fprintf(w, "fmmserve_sessions_active %d\n", ss.Active)
	fmt.Fprintf(w, "fmmserve_sessions_max %d\n", s.cfg.MaxSessions)
	fmt.Fprintf(w, "fmmserve_sessions_created_total %d\n", ss.Created)
	fmt.Fprintf(w, "fmmserve_sessions_expired_total %d\n", ss.Expired)
	fmt.Fprintf(w, "fmmserve_sessions_deleted_total %d\n", ss.Deleted)
	fmt.Fprintf(w, "fmmserve_session_steps_total %d\n", s.sessSteps.Load())
	if rows := kifmm.ShardTrafficStats(); len(rows) > 0 {
		// Sharded plans run one reduction; the backend label keeps the
		// series' names as clients already parse them.
		for _, c := range []struct {
			name  string
			value func(kifmm.ShardTraffic) int64
		}{
			{"bytes_sent", func(t kifmm.ShardTraffic) int64 { return t.BytesSent }},
			{"remote_bytes_sent", func(t kifmm.ShardTraffic) int64 { return t.RemoteBytes }},
			{"msgs_sent", func(t kifmm.ShardTraffic) int64 { return t.MsgsSent }},
			{"reduce_octants_sent", func(t kifmm.ShardTraffic) int64 { return t.ReduceOctants }},
			{"applies", func(t kifmm.ShardTraffic) int64 { return t.Applies }},
		} {
			fmt.Fprintf(w, "# TYPE fmmserve_shard_%s counter\n", c.name)
			for _, t := range rows {
				fmt.Fprintf(w, "fmmserve_shard_%s{backend=\"simple\",rank=\"%d\"} %d\n", c.name, t.Rank, c.value(t))
			}
		}
	}
	s.prof.WriteMetrics(w, "kifmm")
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
