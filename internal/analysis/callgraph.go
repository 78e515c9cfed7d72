package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the whole-program half of fmmvet (DESIGN.md §7.9): a
// project-wide static call graph over the analyzed packages and the
// transitive closure of the //fmm:hotpath and //fmm:deterministic scopes
// over it. The body analyzers (hotalloc, diagbatch, nodeterm) then
// run against *reachable* functions across package boundaries instead of
// only directly annotated ones, and their diagnostics carry the propagation
// chain (uliLeaf → fillCheck → makeScratch).
//
// Construction is AST + go/types only, like the rest of the suite:
//
//   - Static calls (package-level functions, qualified pkg.Fn) resolve to
//     their declared *types.Func.
//   - Method calls resolve by concrete receiver where the static type is
//     locally evident; pointer receivers are normalized so (*T).m and (T).m
//     are one node.
//   - Calls through an interface method become an edge to a synthetic
//     interface-method node (pkg.(I).M); after every package is collected,
//     each named type implementing I links that node to its concrete method.
//     The closure therefore reaches every implementation the program
//     declares — conservative, but sound for the sealed method sets the
//     engine uses (kernel.Kernel, kernel.Batch).
//   - Function values (method values, function identifiers passed as
//     arguments or assigned) become edges too: a hot body handing a method
//     value to sched.For or as a graph's exec function to sched.Graph.Run
//     executes it per item.
//   - Function literals are inlined into their enclosing declaration:
//     a closure body inherits the enclosing function's hot/deterministic
//     scope, and its calls are the encloser's edges.
//
// Soundness limits (documented in DESIGN.md §7.9): calls through
// function-typed variables, fields, and parameters are invisible (the
// closure-inlining rule covers the dominant sched.For/Graph.Run pattern), and
// interface dispatch is over-approximated by the full declared method set.
// //fmm:coldcall (annot.go) is the escape hatch in the other direction:
// deliberate slow-path edges — plan-time setup, error paths, instrumentation
// — stop propagation.

// FuncID names one function or method uniquely across the program:
// "pkgpath.Func" for package-level functions, "pkgpath.(Recv).Method" for
// methods (pointer receivers stripped), and "pkgpath.(Iface).Method" for the
// synthetic interface-method nodes.
type FuncID string

// FuncIDOf returns the FuncID of a declared or used *types.Func.
func FuncIDOf(f *types.Func) FuncID {
	f = f.Origin() // generic instantiations share their origin's node
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, isPtr := rt.(*types.Pointer); isPtr {
			rt = p.Elem()
		}
		rname := types.TypeString(rt, func(p *types.Package) string { return p.Path() })
		// Strip type parameters from generic receivers for a stable key.
		if i := strings.IndexByte(rname, '['); i >= 0 {
			rname = rname[:i]
		}
		return FuncID("(" + rname + ")." + f.Name())
	}
	if f.Pkg() == nil {
		return FuncID(f.Name())
	}
	return FuncID(f.Pkg().Path() + "." + f.Name())
}

// CallEdge is one propagation edge of the graph.
type CallEdge struct {
	Callee FuncID
	PosStr string
	// Seq orders edges and lock operations within their function (source
	// order): the lockorder held-set scan interleaves on it.
	Seq int
	// Cold edges (//fmm:coldcall on the call line) do not propagate scope.
	Cold bool
}

// LockKind classifies one lock operation for the lockorder analyzer.
type LockKind int

const (
	LockAcquire LockKind = iota
	LockRelease
	// LockDeferRelease is an Unlock inside a defer: the lock is held until
	// function exit, so it never shrinks the held set during the scan.
	LockDeferRelease
)

// LockOp is one lock operation on an identified mutex field, in source
// order within its function.
type LockOp struct {
	Kind LockKind
	// Lock identifies the mutex by field ("pkg.Type.field") or package-level
	// variable ("pkg.var"). Read locks are tracked as the same identity:
	// RLock/RUnlock still order against writers.
	Lock   string
	Read   bool // RLock/RUnlock
	PosStr string
	// Seq orders this operation against the function's call edges (see
	// CallEdge.Seq).
	Seq int
}

// FuncNode is one function of the call graph.
type FuncNode struct {
	ID        FuncID
	ShortName string
	PkgPath   string
	PosStr    string
	// Direct annotations (and the coldcall barrier) from the declaration.
	HotDirect, DetDirect, Cold bool
	Edges                      []CallEdge
	Locks                      []LockOp
}

// Graph is the project-wide call graph under construction.
type Graph struct {
	Nodes map[FuncID]*FuncNode
	// ids maps each collected declaration to its node, for Pass scope
	// lookups; keyed per package by the drivers.
	ids map[*ast.FuncDecl]FuncID

	ifaces     map[FuncID]*types.Func // interface-method callee nodes seen at call sites
	namedTypes []*types.Named         // named types declared in analyzed packages
	linked     bool
}

// NewGraph returns an empty call graph.
func NewGraph() *Graph {
	return &Graph{
		Nodes:  make(map[FuncID]*FuncNode),
		ids:    make(map[*ast.FuncDecl]FuncID),
		ifaces: make(map[FuncID]*types.Func),
	}
}

// IDOf returns the FuncID recorded for a collected declaration.
func (g *Graph) IDOf(fd *ast.FuncDecl) (FuncID, bool) {
	id, ok := g.ids[fd]
	return id, ok
}

// node returns (creating if needed) the graph node for id.
func (g *Graph) node(id FuncID) *FuncNode {
	n, ok := g.Nodes[id]
	if !ok {
		n = &FuncNode{ID: id, ShortName: shortName(id)}
		g.Nodes[id] = n
	}
	return n
}

// shortName is the display name used in propagation chains: the bare
// function or method name.
func shortName(id FuncID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// Collect adds one typechecked package to the graph: a node per declared
// function with its annotations, call/function-value edges, and lock
// operations. annot must be the package's parsed annotations (coldcall
// classification marks them used).
func (g *Graph) Collect(pkg *PackageInfo, annot *Annotations) {
	annot.coldChecked = true
	info := pkg.Info
	// Named types declared here feed the interface linking pass.
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					continue // aliases have no method set of their own
				}
				if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok {
						g.namedTypes = append(g.namedTypes, named)
					}
				}
			}
		}
	}
	FuncsOf(pkg.Files, func(fd *ast.FuncDecl) {
		def, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		id := FuncIDOf(def)
		g.ids[fd] = id
		n := g.node(id)
		n.PkgPath = pkg.Path
		n.PosStr = pkg.Fset.Position(fd.Pos()).String()
		n.HotDirect = annot.Hotpath(fd)
		n.DetDirect = annot.Deterministic(fd)
		n.Cold = annot.ColdFunc(fd)
		g.collectBody(n, pkg, annot, fd)
	})
}

// collectBody walks one declaration (function literals inlined) for edges
// and lock operations.
func (g *Graph) collectBody(n *FuncNode, pkg *PackageInfo, annot *Annotations, fd *ast.FuncDecl) {
	info := pkg.Info
	fset := pkg.Fset
	// Call-position expressions: their idents are calls, not values.
	calleeExpr := make(map[ast.Expr]bool)
	deferDepth := 0
	seq := 0
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.DeferStmt:
			// The deferred call itself runs at exit; its Unlocks must not
			// shrink the held set mid-scan.
			deferDepth++
			ast.Inspect(e.Call, walk)
			deferDepth--
			return false
		case *ast.CallExpr:
			fun := ast.Unparen(e.Fun)
			// Calls evaluated only to build a panic message are the crash
			// path — definitionally cold, exactly as hotalloc treats them.
			// Collecting their edges would pull fmt.Sprintf into every hot
			// closure with a panic guard.
			if id, ok := fun.(*ast.Ident); ok {
				if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
					return false
				}
			}
			calleeExpr[fun] = true
			g.addCallEdge(n, pkg, annot, e, deferDepth > 0, &seq)
		case *ast.Ident:
			if calleeExpr[e] {
				return true
			}
			if f, ok := info.Uses[e].(*types.Func); ok {
				g.addValueEdge(n, annot, fset, e.Pos(), f, &seq)
			}
		case *ast.SelectorExpr:
			if calleeExpr[e] {
				return true
			}
			// Method values and qualified function values: x.M passed as an
			// argument or assigned executes later with x bound.
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				if f, ok := sel.Obj().(*types.Func); ok {
					g.addValueEdge(n, annot, fset, e.Pos(), f, &seq)
					calleeExpr[e.Sel] = true // don't double-record via the Ident case
				}
				return true
			}
			if f, ok := info.Uses[e.Sel].(*types.Func); ok {
				g.addValueEdge(n, annot, fset, e.Pos(), f, &seq)
				calleeExpr[e.Sel] = true
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// addCallEdge records the edge for one call expression, when the callee is
// statically resolvable, plus any lock operation the call performs.
func (g *Graph) addCallEdge(n *FuncNode, pkg *PackageInfo, annot *Annotations, call *ast.CallExpr, deferred bool, seq *int) {
	info := pkg.Info
	if op, ok := lockOpOf(info, call); ok {
		if deferred && op.Kind == LockRelease {
			op.Kind = LockDeferRelease
		}
		op.PosStr = pkg.Fset.Position(call.Pos()).String()
		op.Seq = *seq
		*seq++
		n.Locks = append(n.Locks, op)
	}
	f := staticCallee(info, call)
	if f == nil {
		return
	}
	// Stdlib and unsafe callees carry no fmm annotations and are checked
	// in-body by the analyzers (fmt, time, math/rand patterns); the graph
	// only tracks analyzed packages and their interfaces.
	if f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			g.addIfaceEdge(n, annot, pkg.Fset, call.Pos(), f, seq)
			return
		}
	}
	g.edge(n, annot, pkg.Fset, call.Pos(), FuncIDOf(f), seq)
}

// addValueEdge records a function-value reference edge (method value or
// function identifier in non-call position).
func (g *Graph) addValueEdge(n *FuncNode, annot *Annotations, fset *token.FileSet, pos token.Pos, f *types.Func, seq *int) {
	if f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		g.addIfaceEdge(n, annot, fset, pos, f, seq)
		return
	}
	g.edge(n, annot, fset, pos, FuncIDOf(f), seq)
}

func (g *Graph) addIfaceEdge(n *FuncNode, annot *Annotations, fset *token.FileSet, pos token.Pos, f *types.Func, seq *int) {
	id := FuncIDOf(f)
	g.ifaces[id] = f
	in := g.node(id)
	if in.PkgPath == "" && f.Pkg() != nil {
		in.PkgPath = f.Pkg().Path()
	}
	g.edge(n, annot, fset, pos, id, seq)
}

func (g *Graph) edge(n *FuncNode, annot *Annotations, fset *token.FileSet, pos token.Pos, callee FuncID, seq *int) {
	if callee == n.ID {
		return // self-recursion adds nothing to propagation
	}
	n.Edges = append(n.Edges, CallEdge{
		Callee: callee,
		PosStr: fset.Position(pos).String(),
		Seq:    *seq,
		Cold:   annot.ColdEdge(pos),
	})
	*seq++
}

// staticCallee resolves a call to its declared *types.Func, or nil for
// builtins, conversions, and calls through function-typed values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// lockOpOf classifies a call as a lock operation on an identifiable mutex:
// a (R)Lock/(R)Unlock/Try(R)Lock whose receiver chain ends in a struct
// field or a package-level variable containing a sync primitive. Locks held
// in locals or reached through pointers with no stable identity are outside
// the model (DESIGN.md §7.9).
func lockOpOf(info *types.Info, call *ast.CallExpr) (LockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	var op LockOp
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		op.Kind = LockAcquire
	case "RLock", "TryRLock":
		op.Kind, op.Read = LockAcquire, true
	case "Unlock":
		op.Kind = LockRelease
	case "RUnlock":
		op.Kind, op.Read = LockRelease, true
	default:
		return LockOp{}, false
	}
	t := info.TypeOf(sel.X)
	if t == nil || (!containsLock(t) && !containsLockPtr(t)) {
		return LockOp{}, false
	}
	id := lockIdent(info, sel.X)
	if id == "" {
		return LockOp{}, false
	}
	op.Lock = id
	return op, true
}

func containsLockPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && containsLock(p.Elem())
}

// lockIdent names the mutex a lock-method receiver denotes: the owning
// struct field ("pkg.Type.field") or a package-level variable ("pkg.var").
func lockIdent(info *types.Info, x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			obj := sel.Obj()
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
		// Qualified package-level var: pkg.mu.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// Link completes the graph after every package is collected: each
// interface-method node gains edges to the concrete methods of every
// analyzed named type implementing the interface.
func (g *Graph) Link() {
	if g.linked {
		return
	}
	g.linked = true
	// Deterministic order keeps chains reproducible.
	ifaceIDs := make([]FuncID, 0, len(g.ifaces))
	for id := range g.ifaces {
		ifaceIDs = append(ifaceIDs, id)
	}
	sort.Slice(ifaceIDs, func(i, j int) bool { return ifaceIDs[i] < ifaceIDs[j] })
	for _, id := range ifaceIDs {
		m := g.ifaces[id]
		recv := m.Type().(*types.Signature).Recv().Type()
		iface, ok := recv.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		in := g.Nodes[id]
		for _, named := range g.namedTypes {
			if types.IsInterface(named) {
				continue
			}
			var impl types.Type = named
			if !types.Implements(impl, iface) {
				impl = types.NewPointer(named)
				if !types.Implements(impl, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
			cf, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			cid := FuncIDOf(cf)
			if cid == id {
				continue
			}
			in.Edges = append(in.Edges, CallEdge{Callee: cid, PosStr: in.PosStr})
		}
	}
}

// Propagation is the computed hot/deterministic closure: for every in-scope
// function, the chain of short names from a directly annotated root.
// A chain of length 1 is the root itself (direct annotation).
type Propagation struct {
	Hot map[FuncID][]string
	Det map[FuncID][]string
}

// Propagate links the graph and computes both closures. Edges marked cold
// and functions marked //fmm:coldcall stop propagation; interface-method
// nodes pass scope through to every implementation.
func (g *Graph) Propagate() *Propagation {
	g.Link()
	return &Propagation{
		Hot: g.closure(func(n *FuncNode) bool { return n.HotDirect }),
		Det: g.closure(func(n *FuncNode) bool { return n.DetDirect }),
	}
}

// closure runs a breadth-first closure from the root predicate, recording
// shortest propagation chains. Iteration orders are sorted so chains are
// stable run to run.
func (g *Graph) closure(root func(*FuncNode) bool) map[FuncID][]string {
	out := make(map[FuncID][]string)
	var queue []FuncID
	ids := make([]FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if n := g.Nodes[id]; root(n) && !n.Cold {
			out[id] = []string{n.ShortName}
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := g.Nodes[id]
		chain := out[id]
		for _, e := range n.Edges {
			if e.Cold {
				continue
			}
			cn, ok := g.Nodes[e.Callee]
			if !ok || cn.Cold {
				continue
			}
			if _, seen := out[e.Callee]; seen {
				continue
			}
			next := make([]string, len(chain), len(chain)+1)
			copy(next, chain)
			out[e.Callee] = append(next, cn.ShortName)
			queue = append(queue, e.Callee)
		}
	}
	return out
}

// MayAcquire computes, for every function, the set of locks it or any
// callee may transitively acquire — the lift the lockorder analyzer applies
// to call sites. Lock acquisition is a fact about execution, not scope, so
// cold edges still count here. Computed as an iterative fixpoint, which
// handles recursion cycles exactly.
func (g *Graph) MayAcquire() map[FuncID]map[string]bool {
	out := make(map[FuncID]map[string]bool, len(g.Nodes))
	for id, n := range g.Nodes {
		s := make(map[string]bool)
		for _, op := range n.Locks {
			if op.Kind == LockAcquire {
				s[op.Lock] = true
			}
		}
		out[id] = s
	}
	for changed := true; changed; {
		changed = false
		for id, n := range g.Nodes {
			s := out[id]
			for _, e := range n.Edges {
				for l := range out[e.Callee] {
					if !s[l] {
						s[l] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

// ---- lock-order analysis (DESIGN.md §7.9) ----
//
// Each function's lock operations and call edges, interleaved in source
// order (Seq), yield held-set observations: acquiring B while holding A is
// an order edge A→B; calling f while holding A adds A→x for every lock x
// that f may transitively acquire. A cycle in the resulting global order
// graph is a potential deadlock, reported with one witness per edge.

// lockWitness is one observed ordering with its provenance.
type lockWitness struct {
	from, to string
	desc     string // "file:line: f acquires B holding A" / "... calls g which may acquire B"
}

// LockCycle is one potential deadlock: a cycle in the global lock-order
// graph, with one witness description per edge.
type LockCycle struct {
	// Key canonicalizes the cycle for deduplication: the sorted lock
	// identities joined by " ".
	Key string
	// Locks is the cycle path (Locks[i] ordered before Locks[i+1], wrapping),
	// rotated to start at the smallest identity.
	Locks []string
	// Witnesses[i] documents the edge Locks[i]→Locks[i+1 mod n].
	Witnesses []string
}

// lockOrderEdges scans every function for held-set observations.
func (g *Graph) lockOrderEdges() []lockWitness {
	may := g.MayAcquire()
	var out []lockWitness
	ids := make([]FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Nodes[id]
		if len(n.Locks) == 0 && len(n.Edges) == 0 {
			continue
		}
		// Interleave lock ops and call edges by Seq.
		type event struct {
			seq  int
			op   *LockOp
			edge *CallEdge
		}
		events := make([]event, 0, len(n.Locks)+len(n.Edges))
		for i := range n.Locks {
			events = append(events, event{seq: n.Locks[i].Seq, op: &n.Locks[i]})
		}
		for i := range n.Edges {
			events = append(events, event{seq: n.Edges[i].Seq, edge: &n.Edges[i]})
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].seq < events[j].seq })
		var held []string
		holds := func(l string) bool {
			for _, h := range held {
				if h == l {
					return true
				}
			}
			return false
		}
		for _, ev := range events {
			switch {
			case ev.op != nil && ev.op.Kind == LockAcquire:
				for _, h := range held {
					if h != ev.op.Lock {
						out = append(out, lockWitness{
							from: h, to: ev.op.Lock,
							desc: fmt.Sprintf("%s: %s acquires %s holding %s", ev.op.PosStr, n.ShortName, ev.op.Lock, h),
						})
					}
				}
				if !holds(ev.op.Lock) {
					held = append(held, ev.op.Lock)
				}
			case ev.op != nil && ev.op.Kind == LockRelease:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.op.Lock {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
				// LockDeferRelease holds until exit: never shrinks the set.
			case ev.edge != nil && len(held) > 0:
				for l := range may[ev.edge.Callee] {
					if holds(l) {
						continue
					}
					for _, h := range held {
						out = append(out, lockWitness{
							from: h, to: l,
							desc: fmt.Sprintf("%s: %s calls %s which may acquire %s holding %s",
								ev.edge.PosStr, n.ShortName, shortName(ev.edge.Callee), l, h),
						})
					}
				}
			}
		}
	}
	return out
}

// LockCycles builds the global lock-order graph and returns its cycles,
// deduplicated by canonical key and sorted. Each cycle carries one witness
// per edge (both witness paths for the common AB/BA case).
func (g *Graph) LockCycles() []LockCycle {
	witnesses := g.lockOrderEdges()
	adj := make(map[string]map[string]string) // from -> to -> first witness desc
	for _, w := range witnesses {
		m := adj[w.from]
		if m == nil {
			m = make(map[string]string)
			adj[w.from] = m
		}
		if _, ok := m[w.to]; !ok {
			m[w.to] = w.desc
		}
	}
	locks := make([]string, 0, len(adj))
	for l := range adj {
		locks = append(locks, l)
	}
	sort.Strings(locks)
	seen := make(map[string]bool)
	var cycles []LockCycle
	for _, a := range locks {
		tos := make([]string, 0, len(adj[a]))
		for t := range adj[a] {
			tos = append(tos, t)
		}
		sort.Strings(tos)
		for _, b := range tos {
			// Shortest path b → … → a closes a cycle through edge a→b.
			path := shortestLockPath(adj, b, a)
			if path == nil {
				continue
			}
			cycle := append([]string{a}, path...) // a, b, …, (a implied)
			cyc := canonicalCycle(cycle)
			if seen[cyc.Key] {
				continue
			}
			seen[cyc.Key] = true
			for i := range cyc.Locks {
				from := cyc.Locks[i]
				to := cyc.Locks[(i+1)%len(cyc.Locks)]
				cyc.Witnesses = append(cyc.Witnesses, adj[from][to])
			}
			cycles = append(cycles, cyc)
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i].Key < cycles[j].Key })
	return cycles
}

// shortestLockPath returns the node sequence from src to dst (inclusive of
// src, exclusive of dst) over the lock-order graph, or nil.
func shortestLockPath(adj map[string]map[string]string, src, dst string) []string {
	if src == dst {
		return []string{}
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		nexts := make([]string, 0, len(adj[cur]))
		for t := range adj[cur] {
			nexts = append(nexts, t)
		}
		sort.Strings(nexts)
		for _, t := range nexts {
			if _, ok := prev[t]; ok {
				continue
			}
			prev[t] = cur
			if t == dst {
				var rev []string
				for at := cur; at != src; at = prev[at] {
					rev = append(rev, at)
				}
				path := []string{src}
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return path
			}
			queue = append(queue, t)
		}
	}
	return nil
}

// RenderLockCycle formats one cycle as a single-line diagnostic message.
func RenderLockCycle(c LockCycle) string {
	ring := strings.Join(c.Locks, " → ") + " → " + c.Locks[0]
	return fmt.Sprintf("potential deadlock: lock-order cycle %s; witnesses: %s",
		ring, strings.Join(c.Witnesses, "; "))
}

// LockWitnessPos extracts the "file:line:col" prefix of a witness
// description.
func LockWitnessPos(w string) string {
	if i := strings.Index(w, ": "); i >= 0 {
		return w[:i]
	}
	return w
}

// LockCycleAllowed reports whether any witness line of the cycle appears in
// sites ("file:line" strings from //fmm:allow lockorder annotations).
func LockCycleAllowed(c LockCycle, sites map[string]bool) bool {
	if len(sites) == 0 {
		return false
	}
	for _, w := range c.Witnesses {
		pos := LockWitnessPos(w)
		// Drop the column: allows match on file:line.
		if i := strings.LastIndexByte(pos, ':'); i >= 0 {
			pos = pos[:i]
		}
		if sites[pos] {
			return true
		}
	}
	return false
}

// canonicalCycle rotates the cycle to start at its smallest lock and builds
// the dedup key.
func canonicalCycle(locks []string) LockCycle {
	min := 0
	for i, l := range locks {
		if l < locks[min] {
			min = i
		}
	}
	rot := append(append([]string{}, locks[min:]...), locks[:min]...)
	key := append([]string{}, rot...)
	sort.Strings(key)
	return LockCycle{Key: strings.Join(key, " "), Locks: rot}
}

// String renders the graph for debugging and tests.
func (g *Graph) String() string {
	var sb strings.Builder
	ids := make([]FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Nodes[id]
		fmt.Fprintf(&sb, "%s", id)
		if n.HotDirect {
			sb.WriteString(" [hot]")
		}
		if n.DetDirect {
			sb.WriteString(" [det]")
		}
		if n.Cold {
			sb.WriteString(" [cold]")
		}
		sb.WriteString("\n")
		for _, e := range n.Edges {
			fmt.Fprintf(&sb, "  -> %s", e.Callee)
			if e.Cold {
				sb.WriteString(" [cold]")
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
