//go:build !amd64 || purego

package kernel

import "kifmm/internal/linalg"

// UseAVX2 is linalg.UseAVX2: false on builds without the vector kernels.
const UseAVX2 = linalg.UseAVX2

// laplacePanelVec, stokesPanelVec and laplacePairVec are the
// vector kernels' stand-ins: they cover no targets, so the Go loops of
// EvalPanel and EvalPair do all the work.
func laplacePanelVec(tx, ty, tz, sx, sy, sz, den, out []float64) int { return 0 }

func stokesPanelVec(tx, ty, tz, sx, sy, sz, den, out []float64) int { return 0 }

func laplacePairVec(ax, ay, az, bx, by, bz, aden, bden, aout, bpart []float64) int { return 0 }
