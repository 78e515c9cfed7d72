package nodeterm_test

import (
	"testing"

	"kifmm/internal/analysis"
	"kifmm/internal/analysis/analysistest"
	"kifmm/internal/analysis/nodeterm"
)

func TestDeterministicScope(t *testing.T) {
	analysistest.RunProp(t, "testdata", []*analysis.Analyzer{nodeterm.Analyzer}, nil, "det")
}

func TestUnmarkedPackage(t *testing.T) {
	analysistest.RunProp(t, "testdata", []*analysis.Analyzer{nodeterm.Analyzer}, nil, "plain")
}

func TestAllowDiagnostics(t *testing.T) {
	analysistest.RunProp(t, "testdata", []*analysis.Analyzer{nodeterm.Analyzer}, nil, "allowerr")
}
