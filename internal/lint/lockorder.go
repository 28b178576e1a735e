package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer protects the dist coordinator's lease table and
// every other mutex-guarded structure: within a package, pairs of locks
// must always be acquired in one order, and no lock may be held across
// a channel send, an HTTP round-trip, or a call to a function that
// blocks (a fact carries that across packages) or that re-acquires the
// same lock (within the package: every mutex is an unexported field, so
// no caller can hold another package's lock).
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "requires a consistent per-struct mutex acquisition order and forbids " +
		"holding locks across channel sends, HTTP round-trips, and blocking calls",
	Run: runLockOrder,
}

type loKind int

const (
	loLock loKind = iota
	loUnlock
	loBlock // a direct send or HTTP round-trip
	loCall  // a resolved call edge
)

type loEvent struct {
	pos  token.Pos
	kind loKind
	key  string // lock key for loLock/loUnlock
	desc string // human description for loBlock
	obj  *types.Func
}

// loFunc is the per-function event decomposition: the main body's
// events, plus each function literal's events as an independent scope
// (a closure's lock operations do not execute at its definition site).
type loFunc struct {
	obj    *types.Func
	scopes [][]loEvent
}

func runLockOrder(pass *Pass) error {
	var fns []*loFunc
	for _, fd := range funcsIn(pass.Files) {
		obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		f := &loFunc{obj: obj}
		f.scopes = append(f.scopes, collectLockEvents(pass, fd.Body))
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				f.scopes = append(f.scopes, collectLockEvents(pass, lit.Body))
			}
			return true
		})
		fns = append(fns, f)
	}

	// Direct per-function properties from the main scope only: a
	// goroutine body's send does not block its creator.
	locks := make(map[*types.Func][]string)
	blocking := make(map[*types.Func]string)
	for _, f := range fns {
		seen := make(map[string]bool)
		for _, e := range f.scopes[0] {
			switch e.kind {
			case loLock:
				if !seen[e.key] {
					seen[e.key] = true
					locks[f.obj] = append(locks[f.obj], e.key)
				}
			case loBlock:
				if blocking[f.obj] == "" {
					blocking[f.obj] = e.desc
				}
			case loCall:
				if blocking[f.obj] == "" && e.obj.Pkg() != pass.Pkg {
					if op := pass.facts.of(e.obj).Blocks; op != "" {
						blocking[f.obj] = "calls " + qualifiedName(e.obj) + ", which " + op
					}
				}
			}
		}
	}
	// Transitive blocking over the local call graph.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if blocking[f.obj] != "" {
				continue
			}
			for _, e := range f.scopes[0] {
				if e.kind == loCall && blocking[e.obj] != "" {
					blocking[f.obj] = "calls " + e.obj.Name() + ", which " + shortBlockDesc(blocking[e.obj])
					changed = true
					break
				}
			}
		}
	}
	for _, f := range fns {
		if op := blocking[f.obj]; op != "" {
			pass.facts.add(f.obj, funcFacts{Blocks: op})
		}
	}

	if !isInternal(pass.Pkg.Path()) {
		return nil
	}

	// Linear scan of each scope: track the held set, record acquisition
	// order edges, and flag blocking operations under a lock.
	type edge struct{ from, to string }
	edges := make(map[edge]token.Pos)
	for _, f := range fns {
		for _, events := range f.scopes {
			var heldOrder []string
			held := make(map[string]bool)
			for _, e := range events {
				switch e.kind {
				case loLock:
					for _, k := range heldOrder {
						if k != e.key {
							if _, ok := edges[edge{k, e.key}]; !ok {
								edges[edge{k, e.key}] = e.pos
							}
						}
					}
					if !held[e.key] {
						held[e.key] = true
						heldOrder = append(heldOrder, e.key)
					}
				case loUnlock:
					if held[e.key] {
						delete(held, e.key)
						for i, k := range heldOrder {
							if k == e.key {
								heldOrder = append(heldOrder[:i], heldOrder[i+1:]...)
								break
							}
						}
					}
				case loBlock:
					if len(heldOrder) > 0 {
						pass.Reportf(e.pos, "%s while holding %s; a stalled peer would wedge every other user of the lock",
							e.desc, strings.Join(heldOrder, ", "))
					}
				case loCall:
					if len(heldOrder) == 0 {
						continue
					}
					for _, k := range locks[e.obj] {
						if held[k] {
							pass.Reportf(e.pos, "call to %s re-acquires %s, which is already held here (self-deadlock)",
								qualifiedName(e.obj), k)
						}
					}
					if op := blockDescOf(pass, blocking, e.obj); op != "" {
						pass.Reportf(e.pos, "call to %s while holding %s: it %s",
							qualifiedName(e.obj), strings.Join(heldOrder, ", "), shortBlockDesc(op))
					}
				}
			}
		}
	}

	// Inconsistent acquisition order: both (a,b) and (b,a) observed.
	var pairs []edge
	for e := range edges {
		if e.from < e.to {
			if _, ok := edges[edge{e.to, e.from}]; ok {
				pairs = append(pairs, e)
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].from != pairs[j].from {
			return pairs[i].from < pairs[j].from
		}
		return pairs[i].to < pairs[j].to
	})
	for _, p := range pairs {
		p1, p2 := edges[p], edges[edge{p.to, p.from}]
		pos := p1
		if p2 > p1 {
			pos = p2
		}
		pass.Reportf(pos, "inconsistent lock order: %s and %s are acquired in both orders in this package (deadlock risk); pick one order",
			p.from, p.to)
	}
	return nil
}

// blockDescOf returns fn's blocking description, local or imported.
func blockDescOf(pass *Pass, blocking map[*types.Func]string, fn *types.Func) string {
	if op := blocking[fn]; op != "" {
		return op
	}
	return pass.facts.of(fn).Blocks
}

// shortBlockDesc keeps transitive blocking chains readable: only the
// first link is kept ("calls a, which calls b, which …" collapses).
func shortBlockDesc(op string) string {
	if i := strings.Index(op, ", which "); i >= 0 {
		return op[:i] + ", which blocks"
	}
	return op
}

// collectLockEvents gathers body's lock/unlock/send/HTTP/call events in
// source order, without descending into nested function literals
// (scanned as their own scopes) or deferred calls (a deferred Unlock
// means the lock is held to the end of the scope, which is exactly what
// not processing it models).
func collectLockEvents(pass *Pass, body *ast.BlockStmt) []loEvent {
	info := pass.TypesInfo
	var events []loEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			events = append(events, loEvent{pos: n.Pos(), kind: loBlock, desc: "sends on a channel"})
		case *ast.CallExpr:
			obj, _ := callee(info, n).(*types.Func)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch {
			case obj.Pkg().Path() == "sync" && isMutexMethod(obj.Name()):
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind := loLock
				if strings.Contains(obj.Name(), "Unlock") {
					kind = loUnlock
				}
				events = append(events, loEvent{pos: n.Pos(), kind: kind, key: lockKey(info, sel.X)})
			case obj.Pkg().Path() == "net/http" && isRoundTripName(obj.Name()):
				events = append(events, loEvent{pos: n.Pos(), kind: loBlock,
					desc: "performs an HTTP round-trip (net/http." + obj.Name() + ")"})
			default:
				events = append(events, loEvent{pos: n.Pos(), kind: loCall, obj: obj})
			}
		}
		return true
	})
	//lint:allow determinism events come from a deterministic Inspect walk, and SliceStable keeps that visit order for equal positions — the combined key is total
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

func isMutexMethod(name string) bool {
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return true
	}
	return false
}

func isRoundTripName(name string) bool {
	switch name {
	case "Do", "Get", "Head", "Post", "PostForm", "RoundTrip":
		return true
	}
	return false
}

// lockKey names a mutex for order tracking. Field mutexes key on the
// owning named type ("Coordinator.mu"), so different receiver variable
// names agree; embedded mutexes key on the embedding type; bare mutex
// variables key on their (package-qualified, if global) name.
func lockKey(info *types.Info, recv ast.Expr) string {
	recv = ast.Unparen(recv)
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		t := info.TypeOf(sel.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + sel.Sel.Name
		}
		return types.ExprString(recv)
	}
	if id, ok := recv.(*ast.Ident); ok {
		t := info.TypeOf(id)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Name() + ".Mutex" // embedded sync.Mutex
		}
		if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + id.Name
		}
		return id.Name
	}
	return types.ExprString(recv)
}
