package shard

import (
	"sort"
	"sync"
)

// RankTraffic is one rank's communication activity during a single sharded
// Apply: the ghost-density exchange plus the upward-density reduction.
type RankTraffic struct {
	// BytesSent / MsgsSent count the rank's outgoing traffic (including
	// self-sends, which an in-process runtime makes explicit).
	BytesSent, MsgsSent int64
	// RemoteBytes counts bytes sent to other ranks only.
	RemoteBytes int64
	// ReduceOctants is the number of octant records this rank sent during
	// the upward reduction.
	ReduceOctants int64
}

// Traffic is the cumulative per-rank communication counters of every
// sharded Apply in this process.
type Traffic struct {
	Rank int
	// Applies counts sharded Apply calls that recorded into this row.
	Applies int64
	RankTraffic
}

// registry accumulates process-wide sharded-apply traffic, mirroring the
// process-wide translation cache: the serving layer reads it for /metrics
// regardless of which plan (or how many) did the communicating.
type registry struct {
	mu   sync.Mutex
	rows map[int]*Traffic
}

// Metrics is the process-wide sharded-communication traffic registry.
var Metrics = &registry{rows: make(map[int]*Traffic)}

func (g *registry) add(rank int, t RankTraffic) {
	g.mu.Lock()
	row, ok := g.rows[rank]
	if !ok {
		row = &Traffic{Rank: rank}
		g.rows[rank] = row
	}
	row.Applies++
	row.BytesSent += t.BytesSent
	row.MsgsSent += t.MsgsSent
	row.RemoteBytes += t.RemoteBytes
	row.ReduceOctants += t.ReduceOctants
	g.mu.Unlock()
}

// Rows returns a copy of every row, sorted by rank, so metric output is
// deterministic.
func (g *registry) Rows() []Traffic {
	g.mu.Lock()
	out := make([]Traffic, 0, len(g.rows))
	for _, row := range g.rows {
		out = append(out, *row)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Reset clears the registry (tests only).
func (g *registry) Reset() {
	g.mu.Lock()
	g.rows = make(map[int]*Traffic)
	g.mu.Unlock()
}
