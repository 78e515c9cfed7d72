package nodeterm_test

import (
	"testing"

	"kifmm/internal/analysis/analysistest"
	"kifmm/internal/analysis/nodeterm"
)

func TestDeterministicScope(t *testing.T) {
	analysistest.Run(t, "testdata", nodeterm.Analyzer, "det")
}

func TestUnmarkedPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nodeterm.Analyzer, "plain")
}

func TestAllowDiagnostics(t *testing.T) {
	analysistest.Run(t, "testdata", nodeterm.Analyzer, "allowerr")
}
