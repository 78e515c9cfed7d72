// Command fmmvet is the project's static-analysis suite: seven analyzers
// enforcing the determinism, hot-path allocation, and concurrency
// invariants the FMM engine depends on. Since v2 the suite is
// interprocedural: a whole-program call graph propagates //fmm:hotpath and
// //fmm:deterministic scope across package boundaries (//fmm:coldcall stops
// it at deliberate slow-path edges), the compiler's escape/inlining
// decisions for the hot closure are diffed against escape_baseline.txt, and
// a lock-order analyzer reports acquisition cycles as potential deadlocks.
//
// It is a whole-program tool with one driver (every package typechecked
// from source into one call graph; `make lint` runs exactly this):
//
//	go run ./cmd/fmmvet [-json] [-write-escape-baseline] ./...
//
// See DESIGN.md §7.5 for the annotation grammar (//fmm:hotpath,
// //fmm:deterministic, //fmm:allow, //fmm:coldcall), §7.9 for the call
// graph, escape baseline, and lock-order model, and each analyzer's package
// doc for its rationale.
package main

import (
	"os"

	"kifmm/internal/analysis"
	"kifmm/internal/analysis/diagbatch"
	"kifmm/internal/analysis/escape"
	"kifmm/internal/analysis/hotalloc"
	"kifmm/internal/analysis/lockorder"
	"kifmm/internal/analysis/locksafe"
	"kifmm/internal/analysis/mapiter"
	"kifmm/internal/analysis/nodeterm"
)

func main() {
	body := []*analysis.Analyzer{
		mapiter.Analyzer,
		hotalloc.Analyzer,
		diagbatch.Analyzer,
		nodeterm.Analyzer,
		locksafe.Analyzer,
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
