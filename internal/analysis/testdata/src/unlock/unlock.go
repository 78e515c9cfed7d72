// Package unlock is the unlock-without-lock fixture: releases with no
// acquisition of the same mutex, in the same mode, earlier in the function.
package unlock

import "sync"

type state struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (s *state) UnlockOnly() {
	s.mu.Unlock() // want `Unlock of unlock.state.mu with no preceding Lock in this function`
}

func (s *state) RUnlockOnly() {
	s.rw.RUnlock() // want `RUnlock of unlock.state.rw with no preceding RLock in this function`
}

// WrongMode write-locks and read-unlocks.
func (s *state) WrongMode() {
	s.rw.Lock()
	s.rw.RUnlock() // want `RUnlock of unlock.state.rw with no preceding RLock in this function`
}

// UnlockBeforeLock releases textually before its first acquisition.
func (s *state) UnlockBeforeLock() {
	s.mu.Unlock() // want `Unlock of unlock.state.mu with no preceding Lock in this function`
	s.mu.Lock()
}

// DeferredOnly defers a release it never acquired.
func (s *state) DeferredOnly() {
	defer s.mu.Unlock() // want `Unlock of unlock.state.mu with no preceding Lock in this function`
	s.n++
}

// EarlyExit unlocks on two disjoint paths after one lock: the normal idiom,
// not flagged.
func (s *state) EarlyExit(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
}

// Deferred pairs each lock with a deferred unlock.
func (s *state) Deferred() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.n
}

// TryLocked releases only what TryLock acquired.
func (s *state) TryLocked() {
	if !s.mu.TryLock() {
		return
	}
	s.n++
	s.mu.Unlock()
}

// Handoff releases a lock taken by the caller; justified suppression.
func (s *state) Handoff() {
	s.mu.Unlock() //fmm:allow lockorder lock ownership transferred from the caller
}
