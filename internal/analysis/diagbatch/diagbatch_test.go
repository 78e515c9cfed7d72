package diagbatch_test

import (
	"testing"

	"kifmm/internal/analysis"
	"kifmm/internal/analysis/analysistest"
	"kifmm/internal/analysis/diagbatch"
)

func TestDiagBatch(t *testing.T) {
	analysistest.RunProp(t, "testdata", []*analysis.Analyzer{diagbatch.Analyzer}, nil, "hotdiag")
}
