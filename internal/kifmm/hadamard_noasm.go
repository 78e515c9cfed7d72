//go:build !amd64 || purego

package kifmm

// hadamardListVec is the vector bodies' stand-in on builds without them: it
// covers no elements, so hadamardList's Go loop does all the work.
func hadamardListVec(ops []hadamardOp, c0, c1, hl int) int { return 0 }

// hadamardVecBodies is empty: this build has no vector body.
var hadamardVecBodies []hadamardBody
