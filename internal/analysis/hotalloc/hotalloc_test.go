package hotalloc_test

import (
	"testing"

	"kifmm/internal/analysis"
	"kifmm/internal/analysis/analysistest"
	"kifmm/internal/analysis/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	analysistest.RunProp(t, "testdata", []*analysis.Analyzer{hotalloc.Analyzer}, nil, "hot")
}
