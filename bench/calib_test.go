package main

import (
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"testing"
	"time"
)

// The calibration kernel must not be movable by any change to the program:
// its file imports the standard library's math, sync and time only.
func TestCalibImportsNothingFromTheRepo(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"math": true, "sync": true, "time": true}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
			t.Errorf("calib.go imports %q", path)
		}
	}
}

func TestNormaliseIsIdentityAtReference(t *testing.T) {
	d := 1234567 * time.Microsecond
	if got, want := normalise(d, calRefMS, calRefMS), 1234.567; math.Abs(got-want) > 1e-9 {
		t.Errorf("normalise at the reference = %v ms, want %v", got, want)
	}
	// A host twice as slow reports half the wall time.
	if got, want := normalise(d, 2*calRefMS, 2*calRefMS), 1234.567/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("normalise on a half-speed host = %v ms, want %v", got, want)
	}
}

func TestCalibrateReadsPositiveTime(t *testing.T) {
	for _, n := range []int{1, 2} {
		if ms := calibrate(n); !(ms > 0) || math.IsInf(ms, 0) {
			t.Errorf("calibrate(%d) = %v", n, ms)
		}
	}
}
