// Package parstub mimics the sched worker loops (sched.For, Graph.Run's exec
// function): ForW invokes the body closure per item, so a hot caller's
// closure body runs in hot scope.
package parstub

// ForW calls body once per index with a worker id.
func ForW(n int, body func(w, i int)) {
	for i := 0; i < n; i++ {
		body(0, i)
	}
}
