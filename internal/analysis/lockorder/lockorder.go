// Package lockorder checks lock discipline over the whole program: potential
// deadlocks from inconsistent acquisition order, and unlocks with no
// preceding lock.
//
// The call-graph collection pass (analysis.Graph) records, per function, the
// sequence of Lock/Unlock operations on identifiable mutexes — struct fields
// ("pkg.Type.field") and package-level variables ("pkg.var") — plus every
// call edge, in source order. A held-set scan over each function then yields
// global ordering observations: acquiring B while holding A orders A before
// B, and calling f while holding A orders A before everything f may
// transitively acquire (Graph.MayAcquire). Deferred Unlocks hold until
// function exit and never shrink the held set.
//
// A cycle in the resulting lock-order graph means two executions can block
// on each other's next acquisition: the classic AB/BA deadlock, or a longer
// chain. Each cycle is reported once with one witness per edge — the code
// location where that ordering was observed — so both (all) paths of the
// deadlock are visible in the diagnostic.
//
// The same per-function sequence flags an Unlock/RUnlock (immediate or
// deferred) of a mutex the function has not Lock/RLock-ed earlier in source
// order. Presence, not balance, is what is checked: one Lock followed by
// Unlocks on disjoint early-exit branches is the normal idiom and stays
// silent; an Unlock in a function that never locks (the copy-paste into the
// wrong helper), or textually before the first Lock, is flagged.
//
// Locks held in local variables or reached through pointers with no stable
// field identity are outside the model (DESIGN.md §7.9). Suppression uses
// //fmm:allow lockorder <reason> on any witness line of a cycle or on the
// unlock's line; such allows are exempt from unused-allow reporting because
// cycle existence is not decidable package-locally.
package lockorder

import (
	"fmt"
	"strings"

	"kifmm/internal/analysis"
)

// Analyzer reports lock-order cycles and unmatched unlocks over the whole
// program.
var Analyzer = &analysis.GlobalAnalyzer{
	Name: "lockorder",
	Doc:  "reports lock-acquisition-order cycles (potential deadlocks) with a witness per edge, and unlock-without-lock",
	Run:  run,
}

func run(p *analysis.GlobalPass) error {
	allowed := make(map[string]bool)
	for _, an := range p.Annots {
		for _, s := range an.AllowSites("lockorder") {
			allowed[fmt.Sprintf("%s:%d", s.File, s.Line)] = true
		}
	}
	for _, c := range p.Graph.LockCycles() {
		if analysis.LockCycleAllowed(c, allowed) {
			continue
		}
		p.ReportAt(analysis.LockWitnessPos(c.Witnesses[0]), "%s", analysis.RenderLockCycle(c))
	}
	for _, n := range p.Graph.Nodes {
		type mode struct {
			lock string
			read bool
		}
		locked := make(map[mode]bool)
		for _, op := range n.Locks {
			m := mode{op.Lock, op.Read}
			if op.Kind == analysis.LockAcquire {
				locked[m] = true
				continue
			}
			if locked[m] || allowed[op.PosStr[:strings.LastIndexByte(op.PosStr, ':')]] {
				continue
			}
			unlock, lock := "Unlock", "Lock"
			if op.Read {
				unlock, lock = "RUnlock", "RLock"
			}
			p.ReportAt(op.PosStr, "%s of %s with no preceding %s in this function", unlock, op.Lock, lock)
		}
	}
	return nil
}
