// Package goleak verifies that a test leaves no goroutines behind — the
// dynamic complement of the fmmvet static suite for lifecycle bugs: a
// forgotten janitor ticker, an evaluation that out-lives its request's
// deadline or Shutdown, or a shard rank still parked on its mailbox are
// invisible to result-correctness tests but accumulate across a serving
// process.
//
// Usage, first line of a test:
//
//	defer goleak.Check(t)()
//
// Check snapshots the live goroutines; the returned function re-snapshots
// and fails the test if goroutines born since then are still running.
// Because legitimate teardown is asynchronous (net/http's Close returns
// before idle connections unwind), the check polls over a retry window and
// only reports goroutines that persist through it, printing each leaked
// stack so the culprit is named, not counted.
package goleak

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// retryWindow bounds how long the check waits for teardown goroutines to
// unwind before declaring a leak.
const retryWindow = 2 * time.Second

// pollEvery is the re-snapshot interval inside the retry window.
const pollEvery = 20 * time.Millisecond

// TB is the subset of testing.TB the check needs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Check snapshots the currently live goroutines and returns a function
// that fails t if new goroutines are still alive after the retry window.
// Call it first so its deferred verification runs after the test's own
// deferred teardown (server Close, Shutdown, etc.).
func Check(t TB) func() {
	t.Helper()
	base := snapshot()
	return func() {
		t.Helper()
		deadline := time.Now().Add(retryWindow)
		var leaked []goroutine
		for {
			leaked = diff(snapshot(), base)
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(pollEvery)
		}
		for _, g := range leaked {
			t.Errorf("leaked goroutine (%s):\n%s", g.state, g.stack)
		}
	}
}

// goroutine is one parsed record of a full runtime.Stack dump.
type goroutine struct {
	id    string
	state string
	stack string
}

// snapshot parses runtime.Stack(all=true) into per-goroutine records,
// dropping goroutines that are infrastructure rather than test workload:
// the calling goroutine, the testing harness, and the runtime's own
// service goroutines.
func snapshot() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []goroutine
	for _, rec := range strings.Split(string(buf), "\n\n") {
		g, ok := parse(rec)
		if !ok || ignore(g) {
			continue
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// parse splits one "goroutine N [state]:\n<frames>" record.
func parse(rec string) (goroutine, bool) {
	rec = strings.TrimSpace(rec)
	if !strings.HasPrefix(rec, "goroutine ") {
		return goroutine{}, false
	}
	head, rest, ok := strings.Cut(rec, "\n")
	if !ok {
		return goroutine{}, false
	}
	var id int
	var state string
	if _, err := fmt.Sscanf(head, "goroutine %d [%s", &id, &state); err != nil {
		return goroutine{}, false
	}
	return goroutine{
		id:    fmt.Sprintf("%012d", id),
		state: strings.TrimSuffix(strings.TrimSuffix(state, ":"), "]"),
		stack: rest,
	}, true
}

// ignore reports whether g belongs to the test harness or runtime rather
// than code under test.
func ignore(g goroutine) bool {
	// The goroutine running this check.
	if strings.Contains(g.stack, "kifmm/internal/goleak.snapshot") {
		return true
	}
	for _, frame := range []string{
		"testing.(*T).Run",      // parent test goroutines
		"testing.(*M).",         // test main
		"testing.runTests",      //
		"testing.tRunner.func",  // subtest cleanup parking
		"runtime.goexit",        // never alone; paired with frames above
		"os/signal.signal_recv", // signal handler service goroutine
		"runtime.gc",            // GC workers
		"runtime.bgsweep",       //
		"runtime.bgscavenge",    //
		"runtime.forcegchelper", //
		"runtime.runfinq",       // finalizer goroutine
		"runtime.ReadTrace",     //
	} {
		if strings.Contains(firstFunc(g.stack), frame) {
			return true
		}
	}
	return false
}

// firstFunc returns the top frame's function line.
func firstFunc(stack string) string {
	line, _, _ := strings.Cut(stack, "\n")
	return line
}

// diff returns goroutines in cur that are not accounted for in base,
// comparing by creation identity (goroutine ids are monotonic, so anything
// with an id not present in base was born after the first snapshot).
func diff(cur, base []goroutine) []goroutine {
	seen := make(map[string]bool, len(base))
	for _, g := range base {
		seen[g.id] = true
	}
	var out []goroutine
	for _, g := range cur {
		if !seen[g.id] {
			out = append(out, g)
		}
	}
	return out
}
