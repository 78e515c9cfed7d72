// Package mpi provides an in-process message-passing runtime with MPI-like
// semantics: ranks run as goroutines, point-to-point messages are
// tag-matched and buffered (eager), and the usual collectives are built on
// top of point-to-point exchanges with communication-efficient algorithms
// (binomial trees, recursive doubling, pairwise exchange) so that measured
// traffic volumes reflect what a real MPI implementation would move.
//
// This is the substitution for the paper's Cray XT5 MPI environment: every
// distributed algorithm in this codebase (parallel sample sort, distributed
// tree construction, LET exchange, the hypercube reduce-scatter of
// Algorithm 3) is written against this API exactly as it would be against
// MPI, and the per-rank traffic statistics let the benchmarks verify the
// paper's communication-complexity claims.
package mpi

import (
	"fmt"
	"sync"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// internalTagBase separates collective-internal tags from user tags.
const internalTagBase = 1 << 24

// message is one in-flight point-to-point message.
type message struct {
	src, tag int
	data     []byte
}

// mailbox is a rank's incoming message queue with tag matching.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) get(src, tag int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.queue {
			if (src == AnySource || msg.src == src) && msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg
			}
		}
		m.cond.Wait()
	}
}

// World is a communicator shared by a fixed set of ranks.
type World struct {
	size  int
	boxes []*mailbox
	stats []*Stats
}

// Comm is one rank's handle on a World.
type Comm struct {
	rank  int
	world *World
	stats *Stats
}

// Run spawns p ranks, each executing fn with its own Comm, and blocks until
// all complete. It returns the per-rank communication statistics.
func Run(p int, fn func(c *Comm)) []*Stats {
	if p < 1 {
		panic("mpi: need at least one rank")
	}
	w := &World{size: p}
	for i := 0; i < p; i++ {
		w.boxes = append(w.boxes, newMailbox())
		w.stats = append(w.stats, NewStats())
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(rank int) {
			defer wg.Done()
			fn(&Comm{rank: rank, world: w, stats: w.stats[rank]})
		}(r)
	}
	wg.Wait()
	return w.stats
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.world.size }

// Stats returns this rank's live statistics handle.
func (c *Comm) Stats() *Stats { return c.stats }

// Send delivers data to rank dst with the given tag (buffered: it never
// blocks). The data slice is copied.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.stats.record(len(data), dst == c.rank)
	c.world.boxes[dst].put(message{src: c.rank, tag: tag, data: buf})
}

// Recv blocks until a message with matching source (or AnySource) and tag
// arrives; it returns the payload and the actual source rank.
func (c *Comm) Recv(src, tag int) ([]byte, int) {
	msg := c.world.boxes[c.rank].get(src, tag)
	return msg.data, msg.src
}

// Sendrecv exchanges messages with a partner rank, deadlock-free.
func (c *Comm) Sendrecv(partner, tag int, data []byte) []byte {
	c.Send(partner, tag, data)
	got, _ := c.Recv(partner, tag)
	return got
}
