#!/usr/bin/env bash
# lint_inject.sh — negative tests for the fmmvet lint gate.
#
# A static-analysis gate fails silently: a stale escape baseline, an
# over-broad //fmm:allow, or a propagation bug makes `make lint` pass while
# the invariant it guards has rotted. This script proves every analyzer of
# the suite still bites by copying the tree to a scratch directory, planting
# eight known-bad changes, and asserting that each one FAILS
# `go run ./cmd/fmmvet ./...` with the expected diagnostic:
#
#   1. a cross-package hot-path allocation (hotalloc, with the propagation
#      chain naming both sides of the package boundary)
#   2. an AB/BA lock-order cycle (lockorder)
#   3. a hot-path heap-escape regression (escape, diffed against the
#      checked-in escape_baseline.txt)
#   4. a per-group allocation in the V-list body vliFFTGroup (hotalloc)
#   5. an escape through the arguments of the Hadamard assembly stub once
#      its //go:noescape is dropped (escape)
#   6. a runtime.GOMAXPROCS branch in a //fmm:deterministic function
#      (nodeterm)
#   7. a per-octant diag.Profile.AddFlops in the S2U body s2uLeaf
#      (diagbatch)
#   8. a dropped Lock ahead of the deferred Unlock in
#      Operators.resolveVTable (lockorder's unlock check)
#
# Run from the module root: ./scripts/lint_inject.sh  (or `make lint-inject`).
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SCRATCH="$(mktemp -d "${TMPDIR:-/tmp}/fmmvet-inject.XXXXXX")"
trap 'rm -rf "$SCRATCH"' EXIT

fail() {
    echo "lint-inject: FAIL: $*" >&2
    exit 1
}

# fresh_copy populates $SCRATCH/repo with a pristine copy of the tree
# (sans VCS metadata and built binaries).
fresh_copy() {
    rm -rf "$SCRATCH/repo"
    mkdir -p "$SCRATCH/repo"
    tar -C "$ROOT" --exclude=.git --exclude=bin -cf - . | tar -C "$SCRATCH/repo" -xf -
}

# run_fmmvet runs the standalone whole-program checker over the scratch
# copy, capturing combined output in $OUT and the exit status in $STATUS.
run_fmmvet() {
    OUT="$(cd "$SCRATCH/repo" && go run ./cmd/fmmvet ./... 2>&1)"
    STATUS=$?
}

# expect_failure INJECTION-NAME NEEDLE asserts the last run failed and its
# output contains NEEDLE.
expect_failure() {
    local name="$1" needle="$2"
    if [ "$STATUS" -eq 0 ]; then
        fail "$name: fmmvet passed; expected a diagnostic containing: $needle"
    fi
    if ! printf '%s' "$OUT" | grep -qF "$needle"; then
        echo "$OUT" >&2
        fail "$name: fmmvet failed but without the expected diagnostic: $needle"
    fi
    echo "lint-inject: ok: $name rejected (${needle})"
}

# --- 0. the pristine copy must pass, or every assertion below is vacuous ---
fresh_copy
run_fmmvet
if [ "$STATUS" -ne 0 ]; then
    echo "$OUT" >&2
    fail "pristine copy does not pass fmmvet; fix the tree before testing injections"
fi
echo "lint-inject: ok: pristine copy passes"

# --- 1. cross-package hot-path allocation -----------------------------------
# The allocation lives in internal/morton; the //fmm:hotpath root that pulls
# it into the hot closure lives in internal/shard. Only interprocedural
# propagation can connect them, and the diagnostic must carry the chain.
fresh_copy
cat > "$SCRATCH/repo/internal/morton/zz_inject.go" <<'EOF'
package morton

// InjectAlloc is planted by scripts/lint_inject.sh: an allocation that is
// cold here and becomes hot only through a caller in another package.
func InjectAlloc(n int) []float64 {
	return make([]float64, n)
}
EOF
cat > "$SCRATCH/repo/internal/shard/zz_inject.go" <<'EOF'
package shard

import "kifmm/internal/morton"

var injectSink []float64

// injectDrive is planted by scripts/lint_inject.sh.
//
//fmm:hotpath
func injectDrive(n int) {
	injectSink = morton.InjectAlloc(n)
}
EOF
run_fmmvet
expect_failure "cross-package hot allocation" "make allocates in hot path"
expect_failure "cross-package hot allocation chain" "via injectDrive → InjectAlloc"

# --- 2. AB/BA lock-order cycle ----------------------------------------------
fresh_copy
cat > "$SCRATCH/repo/internal/sched/zz_inject.go" <<'EOF'
package sched

import "sync"

// injectState is planted by scripts/lint_inject.sh: two mutexes acquired
// in opposite orders on two paths.
type injectState struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *injectState) injectAB() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *injectState) injectBA() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
EOF
run_fmmvet
expect_failure "lock-order cycle" "potential deadlock: lock-order cycle"

# --- 3. hot-path heap-escape regression -------------------------------------
# A hot function that lets a parameter escape to the heap: the compiler's
# -m=1 output gains a "moved to heap" line absent from escape_baseline.txt.
fresh_copy
cat > "$SCRATCH/repo/internal/morton/zz_inject.go" <<'EOF'
package morton

var escSink *float64

// injectEscape is planted by scripts/lint_inject.sh: taking the address of
// a parameter that outlives the call moves it to the heap, which only the
// compiler-backed escape diff can see (hotalloc has no model of escape).
//
//fmm:hotpath
func injectEscape(x float64) {
	escSink = &x
}
EOF
run_fmmvet
expect_failure "escape regression" "new heap escape in hot-path function"

# --- 4. allocation in the V-list group body ---------------------------------
# The body is guarded only because it is annotated //fmm:hotpath: replace its
# per-worker accumulators with a fresh slice per sibling group.
fresh_copy
F="$SCRATCH/repo/internal/kifmm/fftm2l.go"
grep -qF 'acc := s.fftAccs(len(grp), accLen)' "$F" ||
    fail "vliFFTGroup no longer takes its accumulators from s.fftAccs; update injection 4"
sed -i 's|acc := s.fftAccs(len(grp), accLen)|acc := make([]float64, len(grp)*accLen)|' "$F"
run_fmmvet
expect_failure "allocation in vliFFTGroup" "make allocates in hot path"
expect_failure "allocation in vliFFTGroup names the body" "vliFFTGroup"

# --- 5. escape through the assembly stub's arguments ------------------------
# The compiler cannot see into hadamard_amd64.s: only //go:noescape tells it
# the kernel keeps neither its triple list nor the panels the list points
# to. A hot caller that hands the stub a stack list of stack panels passes
# with the directive and must fail without it.
fresh_copy
F="$SCRATCH/repo/internal/kifmm/hadamard_amd64.go"
cat > "$SCRATCH/repo/internal/kifmm/zz_inject_amd64.go" <<'EOF'
//go:build !purego

package kifmm

// injectStackPanels is planted by scripts/lint_inject.sh: a one-triple
// list of four-element spectra that stays on the stack as long as the stub
// is //go:noescape.
//
//fmm:hotpath
func injectStackPanels() float64 {
	var a, t, s [8]float64
	ops := [1]hadamardOp{{a[:], t[:], s[:]}}
	hadamardListAVX2(&ops[0], 1, 0, 4, 4)
	return a[0]
}
EOF
run_fmmvet
if [ "$STATUS" -ne 0 ]; then
    echo "$OUT" >&2
    fail "stack panels through the //go:noescape stub: fmmvet failed; the directive should keep them on the stack"
fi
grep -q '^//go:noescape$' "$F" || fail "hadamard_amd64.go has no //go:noescape line; update injection 5"
sed -i '/^\/\/go:noescape$/d' "$F"
run_fmmvet
expect_failure "escape through the assembly stub" "new heap escape in hot-path function"
expect_failure "escape through the assembly stub names the caller" "injectStackPanels"

# --- 6. machine-shape dependence in deterministic code ----------------------
# A result that changes with the core count: every test on a 2-core runner
# sees one branch only, so the static check is the only gate.
fresh_copy
cat > "$SCRATCH/repo/internal/sched/zz_inject.go" <<'EOF'
package sched

import "runtime"

// injectShape is planted by scripts/lint_inject.sh.
//
//fmm:deterministic
func injectShape(x float64) float64 {
	if runtime.GOMAXPROCS(0) > 8 {
		return 2 * x
	}
	return x
}
EOF
run_fmmvet
expect_failure "GOMAXPROCS branch in deterministic scope" "runtime.GOMAXPROCS in deterministic scope"

# --- 7. per-octant profile call in a hot body -------------------------------
# The S2U body counts flops in its worker's phase ledger, merged into the
# profile once per evaluation with Profile.Merge; the body can still reach
# e.Prof, and a per-octant AddFlops takes the profile lock once per leaf.
fresh_copy
F="$SCRATCH/repo/internal/kifmm/engine.go"
ANCHOR='	m, scale := e.Ops.S2UOp(n.Key.Level())'
grep -qxF "$ANCHOR" "$F" ||
    fail "s2uLeaf no longer looks up its operator with e.Ops.S2UOp; update injection 7"
sed -i "/^${ANCHOR}\$/a\\	e.Prof.AddFlops(diag.PhaseUpward, 2*int64(m.Rows*m.Cols))" "$F"
run_fmmvet
expect_failure "per-octant AddFlops in s2uLeaf" "per-item diag.Profile.AddFlops in hot path"
expect_failure "per-octant AddFlops lands in the S2U body" "internal/kifmm/engine.go"

# --- 8. unlock with no preceding lock ---------------------------------------
# Drop the Lock that the deferred Unlock in Operators.resolveVTable pairs
# with.
fresh_copy
F="$SCRATCH/repo/internal/kifmm/operators.go"
sed -n '/^func (o \*Operators) resolveVTable/,/^}/p' "$F" | grep -qxF '	o.buildMu.Lock()' ||
    fail "Operators.resolveVTable no longer locks o.buildMu on its own line; update injection 8"
sed -i '/^func (o \*Operators) resolveVTable/,/^}/{/^\to\.buildMu\.Lock()$/d}' "$F"
run_fmmvet
expect_failure "unlock without lock" "Unlock of kifmm/internal/kifmm.Operators.buildMu with no preceding Lock"

echo "lint-inject: PASS: all planted regressions rejected"
