package analysis_test

import (
	"testing"

	"kifmm/internal/analysis"
	"kifmm/internal/analysis/analysistest"
	"kifmm/internal/analysis/hotalloc"
	"kifmm/internal/analysis/lockorder"
	"kifmm/internal/analysis/nodeterm"
)

// bodyAnalyzers are the propagated analyzers the whole-program fixtures
// exercise (hot and deterministic scope respectively).
func bodyAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{hotalloc.Analyzer, nodeterm.Analyzer}
}

// TestCrossPackagePropagation pins the interprocedural behaviors the v2
// suite added: hot/deterministic scope crossing package boundaries with
// chain-carrying diagnostics, //fmm:coldcall barriers on call edges, method
// values, and doc comments, closure bodies inheriting hot scope through a
// worker-loop shim in another package (parstub.ForW, shaped like sched.For
// and sched.Graph.Run), allows that are used only via
// propagated scope, and the coldcall hygiene diagnostics.
func TestCrossPackagePropagation(t *testing.T) {
	analysistest.RunProp(t, "testdata", bodyAnalyzers(), nil, "propb", "parstub", "propa")
}

// TestLockOrderCycle pins the AB/BA deadlock pair being reported with both
// witnesses.
func TestLockOrderCycle(t *testing.T) {
	analysistest.RunProp(t, "testdata", nil, []*analysis.GlobalAnalyzer{lockorder.Analyzer}, "lockcycle")
}

// TestLockOrderClean pins the negative space: consistent order (direct and
// through a call edge) stays silent, and a deliberate cycle is suppressed
// by an //fmm:allow lockorder on a witness line.
func TestLockOrderClean(t *testing.T) {
	analysistest.RunProp(t, "testdata", nil, []*analysis.GlobalAnalyzer{lockorder.Analyzer}, "lockok")
}

// TestUnlockWithoutLock pins the unlock check over the same per-function
// lock sequence: releases with no earlier acquisition in the same mode are
// reported (immediate, deferred, textually first, wrong mode); one lock with
// unlocks on disjoint exits, deferred and TryLock pairs, and an allowed
// handoff stay silent.
func TestUnlockWithoutLock(t *testing.T) {
	analysistest.RunProp(t, "testdata", nil, []*analysis.GlobalAnalyzer{lockorder.Analyzer}, "unlock")
}
