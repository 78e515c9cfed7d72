package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kifmm"
)

// retiredOptions are wire fields this server once served and now refuses by
// name (SolverOptions.UnmarshalJSON).
var retiredOptions = []string{"balanced", "exec", "dense_m2l", "accelerated", "precision"}

// FuzzSolverOptionsJSON feeds arbitrary bytes through the path a request's
// "options" take — strict decode, Validate, kifmm.New — and requires an error
// or a solver, never a panic; an object carrying a retired field is always an
// error, adding one to an accepted object is an error that names it, an
// order above kifmm.MaxOrder and a tolerance outside (0, 1) are refused by
// Validate and by New, and so is, by Validate, any shard_comm but "" and
// "simple" (the one reduction).
// `make fuzz` runs it for 10 s.
func FuzzSolverOptionsJSON(f *testing.F) {
	seeds := []SolverOptions{
		fastOpts(),
		{Kernel: "laplace", Order: 5, PointsPerBox: 40, Workers: 2},
		{Kernel: "stokes", Order: 4, Tolerance: 1e-8, MaxDepth: 12},
		{Kernel: "yukawa", Order: 4, YukawaLambda: 5},
		{Kernel: "laplace", Order: 4, Shards: 4, ShardComm: "simple"},
		{Kernel: "laplace", Order: 4, Shards: 3},
		{Kernel: "laplace", Order: 4, Targets: [][3]float64{{0.5, 0.5, 0.5}}},
		{Kernel: "helmholtz"},
	}
	for _, o := range seeds {
		b, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, name := range retiredOptions {
		f.Add([]byte(`{"order":4,"` + name + `":true}`))
	}
	for _, s := range []string{``, `null`, `[]`, `{"order":"4"}`, `{"order":-1}`, `{"max_depth":31}`,
		`{"shards":3}`, `{"shards":-2,"shard_comm":"simple"}`, `{"shards":2,"shard_comm":"hypercube"}`, `{"targets":[[0,0]]}`, `{"Order":4,"order":1e9}`,
		`{"tolerance":1}`, `{"tolerance":-1e-9}`, `{"tolerance":1e300}`} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var o SolverOptions
		err := json.Unmarshal(b, &o)
		var obj map[string]json.RawMessage
		if json.Unmarshal(b, &obj) == nil && err == nil {
			for key := range obj {
				for _, name := range retiredOptions {
					if strings.EqualFold(key, name) {
						t.Fatalf("%s: accepted an object with the retired field %q", b, key)
					}
				}
			}
		}
		if err != nil {
			return
		}
		for _, name := range retiredOptions {
			with := map[string]json.RawMessage{name: json.RawMessage(`true`)}
			for k, v := range obj {
				with[k] = v
			}
			wb, _ := json.Marshal(with) // a map of raw JSON values cannot fail to encode
			if err := json.Unmarshal(wb, new(SolverOptions)); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s: error %v, want one naming %q", wb, err, name)
			}
		}
		if o.Order > kifmm.MaxOrder {
			// Refused at both doors, before any operator is built.
			if o.Validate() == nil {
				t.Fatalf("%s: Validate accepted order %d, above MaxOrder %d", b, o.Order, kifmm.MaxOrder)
			}
			if _, err := kifmm.New(o.ToOptions()); err == nil {
				t.Fatalf("%s: kifmm.New accepted order %d, above MaxOrder %d", b, o.Order, kifmm.MaxOrder)
			}
			return
		}
		if !(o.Tolerance >= 0 && o.Tolerance < 1) {
			if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "tolerance") {
				t.Fatalf("%s: Validate error %v, want one naming tolerance", b, err)
			}
			if _, err := kifmm.New(o.ToOptions()); err == nil {
				t.Fatalf("%s: kifmm.New accepted tolerance %g", b, o.Tolerance)
			}
			return
		}
		if o.ShardComm != "" && o.ShardComm != "simple" {
			if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "shard_comm") {
				t.Fatalf("%s: Validate error %v, want one naming shard_comm", b, err)
			}
			return
		}
		if o.Validate() != nil {
			return
		}
		opt := o.ToOptions()
		if opt.Order == 0 || opt.Order > 4 {
			// Operator construction costs like order⁶ up to MaxOrder; the
			// target is the option mapping, not the SVDs.
			opt.Order = 4
		}
		if solver, err := kifmm.New(opt); err == nil && solver == nil {
			t.Fatalf("%s: kifmm.New returned neither a solver nor an error", b)
		}
	})
}

// FuzzRequestBodies drives arbitrary bytes through the /v1/evaluate and
// /v1/session/{id}/step handlers of one server (step: the live session the
// target creates up front; evaluate: any plan_id, with one resident plan to
// hit) and allows any answer but a panic or a 5xx. The one 5xx a request can
// legitimately ask for is 504, a deadline its own timeout_ms set. Bodies are
// capped at 16 KiB. `make fuzz` runs it for 10 s.
func FuzzRequestBodies(f *testing.F) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxSessions: 2, MaxBodyBytes: 16 << 10, RequestTimeout: 10 * time.Second})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	pts, den := testPoints(200, 3)
	var plan PlanResponse
	var sess SessionResponse
	for _, c := range []struct {
		path string
		req  any
		resp any
	}{
		{"/v1/plan", PlanRequest{Points: pts, Options: fastOpts()}, &plan},
		{"/v1/session", SessionRequest{Points: pts, Options: fastOpts()}, &sess},
	} {
		body, _ := json.Marshal(c.req)
		rec := post(c.path, body)
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), c.resp) != nil {
			f.Fatalf("%s: %d %s", c.path, rec.Code, rec.Body)
		}
	}
	evaluate, _ := json.Marshal(EvaluateRequest{PlanID: plan.PlanID, Densities: den})
	f.Add(false, evaluate)
	step, _ := json.Marshal(SessionStepRequest{
		Move:      []WireMove{{ID: 3, To: [3]float64{0.5, 0.25, 0.75}}},
		Add:       [][3]float64{{0.1, 0.2, 0.3}},
		Remove:    []int{7},
		Densities: den,
	})
	f.Add(true, step)

	f.Fuzz(func(t *testing.T, toStep bool, body []byte) {
		path := "/v1/evaluate"
		if toStep {
			path = "/v1/session/" + sess.SessionID + "/step"
		}
		rec := post(path, body)
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s %q: %d %s", path, body, rec.Code, rec.Body)
		}
	})
}
