// Command fmmvet is the project's static-analysis suite: five analyzers
// enforcing the checks no other gate makes — hot-path allocation and escape,
// per-item profile locking, machine-shape dependence in deterministic code,
// and lock discipline. Copied locks are go vet's copylocks; map-order
// determinism is pinned dynamically by the potentials probe and the
// differential oracles (DESIGN.md §7.5). The suite is interprocedural: a
// whole-program call graph propagates //fmm:hotpath and //fmm:deterministic
// scope across package boundaries (//fmm:coldcall stops it at deliberate
// slow-path edges), the compiler's escape/inlining decisions for the hot
// closure are diffed against escape_baseline.txt, and a lock analyzer reports
// acquisition-order cycles as potential deadlocks and unlocks with no
// preceding lock.
//
// It is a whole-program tool with one driver (every package typechecked
// from source into one call graph; `make lint` runs exactly this):
//
//	go run ./cmd/fmmvet [-json] [-write-escape-baseline] ./...
//
// See DESIGN.md §7.5 for the annotation grammar (//fmm:hotpath,
// //fmm:deterministic, //fmm:allow, //fmm:coldcall), §7.9 for the call
// graph, escape baseline, and lock model, and each analyzer's package doc
// for its rationale.
package main

import (
	"os"

	"kifmm/internal/analysis"
	"kifmm/internal/analysis/diagbatch"
	"kifmm/internal/analysis/escape"
	"kifmm/internal/analysis/hotalloc"
	"kifmm/internal/analysis/lockorder"
	"kifmm/internal/analysis/nodeterm"
)

func main() {
	body := []*analysis.Analyzer{
		hotalloc.Analyzer,
		diagbatch.Analyzer,
		nodeterm.Analyzer,
	}
	globals := func(opts analysis.MainOptions, patterns []string) []*analysis.GlobalAnalyzer {
		return []*analysis.GlobalAnalyzer{
			lockorder.Analyzer,
			escape.New(escape.Config{
				BaselinePath: opts.EscapeBaseline,
				Write:        opts.WriteEscapeBaseline,
				Patterns:     patterns,
			}),
		}
	}
	os.Exit(analysis.Main(body, globals))
}
