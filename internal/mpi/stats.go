package mpi

import "sync"

// Stats counts a rank's outgoing traffic. The evaluation-phase benchmarks
// snapshot these counters around individual algorithm stages to verify the
// paper's communication-volume claims (e.g. the m·(3√p−2) bound of
// Algorithm 3).
type Stats struct {
	mu        sync.Mutex
	msgs      int64
	bytes     int64
	selfBytes int64
}

// NewStats returns zeroed statistics.
func NewStats() *Stats { return &Stats{} }

func (s *Stats) record(n int, self bool) {
	s.mu.Lock()
	s.msgs++
	s.bytes += int64(n)
	if self {
		s.selfBytes += int64(n)
	}
	s.mu.Unlock()
}

// Snapshot captures the current counters.
type Snapshot struct {
	Messages, Bytes, RemoteBytes int64
}

// Snap returns a point-in-time copy of the counters.
func (s *Stats) Snap() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{Messages: s.msgs, Bytes: s.bytes, RemoteBytes: s.bytes - s.selfBytes}
}

// Delta returns the traffic between two snapshots.
func (a Snapshot) Delta(b Snapshot) Snapshot {
	return Snapshot{
		Messages:    b.Messages - a.Messages,
		Bytes:       b.Bytes - a.Bytes,
		RemoteBytes: b.RemoteBytes - a.RemoteBytes,
	}
}
