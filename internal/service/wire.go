// Package service implements fmmserve, a long-lived HTTP/JSON evaluation
// server over the public kifmm API. It splits every evaluation into the
// paper's setup/evaluation phases: plan construction (octree, interaction
// lists, translation operators) is cached in a bounded LRU keyed by a
// content hash of the point set and solver options, and the density-
// dependent Apply runs on the request's own goroutine once it holds one of
// the Workers slots, behind bounded admission (429 beyond it) and under the
// request's deadline, which stops the work — queued, mid-plan or mid-Apply —
// and is answered 504. This is the serving
// substrate for iterative-solver clients (e.g. GMRES over a Stokes boundary
// integral), which re-evaluate one geometry with many density vectors.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"kifmm"
)

// SolverOptions is the wire form of kifmm.Options (the subset that is
// meaningful per-request; distributed-evaluation knobs are not served).
type SolverOptions struct {
	Kernel       string  `json:"kernel,omitempty"`
	PointsPerBox int     `json:"points_per_box,omitempty"`
	Order        int     `json:"order,omitempty"`
	Tolerance    float64 `json:"tolerance,omitempty"`
	MaxDepth     int     `json:"max_depth,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	YukawaLambda float64 `json:"yukawa_lambda,omitempty"`
	// Shards, when positive, serves this plan as a sharded plan: the octree
	// is Morton-partitioned across Shards in-process ranks with per-rank
	// local essential trees and every apply runs the coordinated multi-rank
	// evaluation (capped by the server's -max-shards).
	Shards int `json:"shards,omitempty"`
	// ShardComm names the sharded reduction. Sharded plans run one, the
	// direct point-to-point "simple", so only "" and "simple" are accepted;
	// the field is decoded for the clients that still send it and changes
	// nothing.
	ShardComm string `json:"shard_comm,omitempty"`
	// Targets, when non-empty, makes evaluation asymmetric: request points
	// are sources only, and potentials are returned at these targets instead
	// (the plan is built with kifmm.FMM.PlanAt). Incompatible with shards and
	// sessions.
	Targets [][3]float64 `json:"targets,omitempty"`
}

// UnmarshalJSON decodes the options strictly: a field this server does not
// know — a typo, or one of the retired "accelerated", "exec", "dense_m2l",
// "balanced" and "precision" — is an error naming it (a 400 from
// decodeBody), not a request served with the default in its place.
func (o *SolverOptions) UnmarshalJSON(b []byte) error {
	type plain SolverOptions // drops this method
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode((*plain)(o))
}

// Validate rejects, naming the field, an order above kifmm.MaxOrder and a
// nonzero tolerance that kifmm.ValidTolerance refuses (kifmm.New would
// refuse either at plan build; 0 is the default) and a shard_comm other
// than "simple", before the request is queued.
func (o SolverOptions) Validate() error {
	if o.Order > kifmm.MaxOrder {
		return fmt.Errorf("order: %d exceeds the maximum %d", o.Order, kifmm.MaxOrder)
	}
	if o.Tolerance != 0 && !kifmm.ValidTolerance(o.Tolerance) {
		return fmt.Errorf("tolerance: %g is not in (0, 1)", o.Tolerance)
	}
	if o.ShardComm != "" && o.ShardComm != "simple" {
		return fmt.Errorf("shard_comm: %q is not served; sharded plans reduce with \"simple\"", o.ShardComm)
	}
	return nil
}

// ToOptions maps the (validated) wire form onto kifmm.Options; zero values
// keep the library defaults. Targets are geometry, not solver configuration:
// buildPlan hands them to PlanAt.
func (o SolverOptions) ToOptions() kifmm.Options {
	return kifmm.Options{
		Kernel:       kifmm.KernelName(o.Kernel),
		PointsPerBox: o.PointsPerBox,
		Order:        o.Order,
		Tolerance:    o.Tolerance,
		MaxDepth:     o.MaxDepth,
		Workers:      o.Workers,
		YukawaLambda: o.YukawaLambda,
		Shards:       o.Shards,
	}
}

// PlanRequest builds (or looks up) a cached plan for a point set.
type PlanRequest struct {
	// Points are unit-cube locations, one [x,y,z] triple per point.
	Points [][3]float64 `json:"points"`
	// Options configure the solver the plan is bound to.
	Options SolverOptions `json:"options"`
}

// PlanResponse identifies the cached plan.
type PlanResponse struct {
	PlanID       string `json:"plan_id"`
	NumPoints    int    `json:"num_points"`
	DensityDim   int    `json:"density_dim"`
	PotentialDim int    `json:"potential_dim"`
	// Cached reports whether the plan was already resident (a cache hit).
	Cached bool `json:"cached"`
	// MemoryBytes is the plan's estimated resident size.
	MemoryBytes int64 `json:"memory_bytes"`
}

// EvaluateRequest evaluates densities against a plan, addressed either by
// PlanID (from a prior /v1/plan call) or by inline Points (+Options), which
// are planned on the fly and cached unless NoCache is set.
type EvaluateRequest struct {
	PlanID    string        `json:"plan_id,omitempty"`
	Points    [][3]float64  `json:"points,omitempty"`
	Options   SolverOptions `json:"options,omitempty"`
	Densities []float64     `json:"densities"`
	// NoCache plans inline points without consulting or populating the plan
	// cache (one-shot workloads).
	NoCache bool `json:"no_cache,omitempty"`
	// TimeoutMS optionally tightens the server's per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// EvaluateResponse carries the potentials in input point order.
type EvaluateResponse struct {
	PlanID     string    `json:"plan_id"`
	Potentials []float64 `json:"potentials"`
	// CacheHit reports whether the evaluation reused a resident plan.
	CacheHit bool `json:"cache_hit"`
	// ElapsedMS is the server-side service time (queue wait excluded).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// SessionRequest opens a moving-points session over an initial point set.
type SessionRequest struct {
	// Points are the initial unit-cube locations; they receive session point
	// IDs 0..len(points)-1.
	Points [][3]float64 `json:"points"`
	// Options configure the session's solver; with shards every step builds
	// a sharded plan. Targets are not supported for sessions.
	Options SolverOptions `json:"options"`
}

// SessionResponse identifies the created session.
type SessionResponse struct {
	SessionID    string `json:"session_id"`
	NumPoints    int    `json:"num_points"`
	DensityDim   int    `json:"density_dim"`
	PotentialDim int    `json:"potential_dim"`
	MemoryBytes  int64  `json:"memory_bytes"`
	// TTLSeconds is the idle lifetime; each step resets the timer.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// WireMove relocates one live session point.
type WireMove struct {
	ID int        `json:"id"`
	To [3]float64 `json:"to"`
}

// SessionStepRequest advances a session by one delta and, when Densities is
// non-empty, evaluates the stepped ensemble in the same request.
type SessionStepRequest struct {
	Move   []WireMove   `json:"move,omitempty"`
	Add    [][3]float64 `json:"add,omitempty"`
	Remove []int        `json:"remove,omitempty"`
	// Densities, when non-empty, are applied after the delta (DensityDim
	// values per live point, ascending ID order).
	Densities []float64 `json:"densities,omitempty"`
	// TimeoutMS optionally tightens the server's per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SessionStepInfo is the wire form of kifmm.StepInfo: the same fields in the
// same order (the step handler converts with SessionStepInfo(info)), the
// JSON names declared here.
type SessionStepInfo struct {
	Moved    int   `json:"moved"`
	Added    int   `json:"added"`
	Removed  int   `json:"removed"`
	AddedIDs []int `json:"added_ids,omitempty"`
}

// SessionStepResponse reports what the step did and, when densities were
// supplied, the potentials of the stepped ensemble.
type SessionStepResponse struct {
	SessionID  string          `json:"session_id"`
	Info       SessionStepInfo `json:"info"`
	NumPoints  int             `json:"num_points"`
	Potentials []float64       `json:"potentials,omitempty"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
}

// PlanKey returns the plan-cache key: a SHA-256 content hash over a
// canonical binary encoding of the solver options and the point set, so
// identical geometry+configuration from different clients share one plan.
func PlanKey(points [][3]float64, o SolverOptions) string {
	h := sha256.New()
	h.Write([]byte(o.Kernel))
	h.Write([]byte{0})
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi(int64(o.PointsPerBox))
	wi(int64(o.Order))
	wf(o.Tolerance)
	wi(int64(o.MaxDepth))
	wi(int64(o.Workers))
	wf(o.YukawaLambda)
	// The shard count is part of plan identity: the same points served at
	// different shard counts are distinct resident plans.
	wi(int64(o.Shards))
	// Target geometry is part of plan identity: the same sources evaluated
	// at different target sets are distinct plans (distinct union trees).
	wi(int64(len(o.Targets)))
	for _, p := range o.Targets {
		wf(p[0])
		wf(p[1])
		wf(p[2])
	}
	wi(int64(len(points)))
	for _, p := range points {
		wf(p[0])
		wf(p[1])
		wf(p[2])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ToPoints converts wire triples to kifmm points.
func ToPoints(pts [][3]float64) []kifmm.Point {
	out := make([]kifmm.Point, len(pts))
	for i, p := range pts {
		out[i] = kifmm.Point{X: p[0], Y: p[1], Z: p[2]}
	}
	return out
}
