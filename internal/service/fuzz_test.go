package service

import (
	"encoding/json"
	"strings"
	"testing"

	"kifmm"
)

// retiredOptions are wire fields this server once served and now refuses by
// name (SolverOptions.UnmarshalJSON).
var retiredOptions = []string{"balanced", "exec", "dense_m2l", "accelerated", "precision"}

// FuzzSolverOptionsJSON feeds arbitrary bytes through the path a request's
// "options" take — strict decode, Validate, kifmm.New — and requires an error
// or a solver, never a panic; an object carrying a retired field is always an
// error, adding one to an accepted object is an error that names it, and an
// order above kifmm.MaxOrder is refused by Validate and by New.
// `make fuzz` runs it for 10 s.
func FuzzSolverOptionsJSON(f *testing.F) {
	seeds := []SolverOptions{
		fastOpts(),
		{Kernel: "laplace", Order: 5, PointsPerBox: 40, Workers: 2},
		{Kernel: "stokes", Order: 4, Tolerance: 1e-8, MaxDepth: 12},
		{Kernel: "yukawa", Order: 4, YukawaLambda: 5},
		{Kernel: "laplace", Order: 4, Shards: 4, ShardComm: "hypercube"},
		{Kernel: "laplace", Order: 4, Shards: 3, ShardComm: "simple"},
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
		`{"shards":3}`, `{"shards":-2,"shard_comm":"simple"}`, `{"targets":[[0,0]]}`, `{"Order":4,"order":1e9}`} {
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
