package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrderAnalyzer enforces the critical-section rules of the "Locks and
// invariants" table: no blocking operation (channel send/receive, select
// without default, EM fits, net/http round trips, time.Sleep, WaitFresh)
// while a mutex is write-held; nested lock acquisition only along the
// declared hierarchy (Service.mu before fitPipeline.mu, Candidates.mu before
// candRow.mu — never the reverse); and every Lock discharged on every path
// out of the function. Blocking calls are found by a memoized call-graph
// walk across the loaded packages.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "report blocking operations and lock-order inversions inside mutex " +
		"critical sections, and Lock/Unlock pairs not discharged on all paths",
	Run: runLockOrder,
}

// lockClass identifies a mutex by enclosing type and field name: every
// (*Service).mu is one class regardless of which instance is locked.
type lockClass struct {
	Type  string // enclosing named type, "" for package-level or local mutexes
	Field string // field or variable name
}

func (c lockClass) String() string {
	if c.Type == "" {
		return c.Field
	}
	return c.Type + "." + c.Field
}

// LockHierarchy declares the sanctioned nesting order: each pair means the
// first lock may be held while acquiring the second, and acquiring them in
// the reverse order is an inversion. Pairs absent from the list are treated
// as unordered and left alone.
var LockHierarchy = [][2]lockClass{
	{{Type: "Service", Field: "mu"}, {Type: "fitPipeline", Field: "mu"}},
	{{Type: "Candidates", Field: "mu"}, {Type: "candRow", Field: "mu"}},
}

// hierarchyAllows reports whether the declared order permits acquiring
// inner while outer is held.
func hierarchyAllows(outer, inner lockClass) bool {
	for _, pair := range LockHierarchy {
		if pair[0] == outer && pair[1] == inner {
			return true
		}
	}
	return false
}

// hierarchyForbids reports whether acquiring inner while outer is held
// inverts a declared pair.
func hierarchyForbids(outer, inner lockClass) bool {
	for _, pair := range LockHierarchy {
		if pair[0] == inner && pair[1] == outer {
			return true
		}
	}
	return false
}

// blockingCalls lists standard-library calls that park the goroutine (or
// last unboundedly long) and must never run under a write lock. Functions
// are keyed "pkg.Name", methods "pkg.(Recv).Name".
var blockingCalls = map[string]string{
	"time.Sleep":                          "time.Sleep",
	"net/http.Get":                        "net/http request",
	"net/http.Post":                       "net/http request",
	"net/http.PostForm":                   "net/http request",
	"net/http.Head":                       "net/http request",
	"net/http.(Client).Do":                "net/http request",
	"net/http.(Client).Get":               "net/http request",
	"net/http.(Client).Post":              "net/http request",
	"net/http.(Client).PostForm":          "net/http request",
	"net/http.(Client).Head":              "net/http request",
	"net/http.(Server).ListenAndServe":    "net/http serve loop",
	"net/http.(Server).ListenAndServeTLS": "net/http serve loop",
	"sync.(Cond).Wait":                    "sync.Cond.Wait",
	"os/exec.(Cmd).Run":                   "subprocess wait",
	"os/exec.(Cmd).Wait":                  "subprocess wait",
	"os/exec.(Cmd).Output":                "subprocess wait",
	"os/exec.(Cmd).CombinedOutput":        "subprocess wait",
}

// blockingNames are method names that mean "long-running model work or a
// wait for the fit pipeline" anywhere in this module — Engine.Fit and
// friends are interface calls the type checker cannot resolve to a body, so
// they are matched by name.
var blockingNames = map[string]string{
	"Fit":        "model fit",
	"FitContext": "model fit",
	"WaitFresh":  "WaitFresh",
	"await":      "fit-pipeline wait",
}

// callKey renders a function the way blockingCalls keys it.
func callKey(f *types.Func) string {
	pkg := funcPkgPath(f)
	if recv := recvTypeName(f); recv != "" {
		return pkg + ".(" + recv + ")." + f.Name()
	}
	return pkg + "." + f.Name()
}

// moduleLocal reports whether a package path resolves through the loader's
// module mappings (as opposed to the standard library): blockingNames only
// match module code, so a stdlib method that happens to be called Fit is
// not flagged.
func (lo *lockOrder) moduleLocal(path string) bool {
	_, ok := lo.pass.Pkg.loader.dirFor(path)
	return ok
}

// blockFact is one blocking operation a function (transitively) performs.
type blockFact struct {
	pos  token.Pos // where in the summarized function
	desc string    // human description, with call path
}

// funcSummary is the memoized transitive behavior of one function body:
// the blocking operations it may perform and the lock classes it acquires.
type funcSummary struct {
	blocking []blockFact
	acquires []lockClass
}

// lockOrder is the per-run state shared across all functions of a package.
type lockOrder struct {
	pass      *Pass
	summaries map[*types.Func]*funcSummary
	inFlight  map[*types.Func]bool
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrder{
		pass:      pass,
		summaries: make(map[*types.Func]*funcSummary),
		inFlight:  make(map[*types.Func]bool),
	}
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lo.checkFunc(fd.Body)
			// Function literals get their own empty-state walk: a
			// goroutine or callback does not inherit the creator's locks.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					lo.checkFunc(fl.Body)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// heldLock is one acquisition live at the current program point.
type heldLock struct {
	key      string // rendered receiver expression, e.g. "s.mu"
	class    lockClass
	write    bool
	deferred bool // a deferred Unlock/RUnlock discharges it
	pos      token.Pos
}

// lockState is the set of live acquisitions, keyed by rendered expression.
// tainted keys had divergent branch outcomes and are exempt from balance
// checks for the rest of the function.
type lockState struct {
	held    map[string]*heldLock
	tainted map[string]bool
}

func newLockState() *lockState {
	return &lockState{held: make(map[string]*heldLock), tainted: make(map[string]bool)}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		cp := *v
		c.held[k] = &cp
	}
	for k := range s.tainted {
		c.tainted[k] = true
	}
	return c
}

// anyWriteHeld returns a write-held lock, preferring the outermost.
func (s *lockState) anyWriteHeld() *heldLock {
	var best *heldLock
	for _, h := range s.held {
		if h.write && (best == nil || h.pos < best.pos) {
			best = h
		}
	}
	return best
}

// checkFunc walks one function body with an empty lock state.
func (lo *lockOrder) checkFunc(body *ast.BlockStmt) {
	st := newLockState()
	terminated := lo.walkStmts(body.List, st)
	if terminated {
		return
	}
	for _, h := range st.held {
		if !h.deferred && !st.tainted[h.key] {
			lo.pass.Reportf(h.pos, "%s is locked here but not released on every path out of the function", h.key)
		}
	}
}

// lockMethod classifies a call as a sync lock operation on a mutex-typed
// receiver, returning the receiver expression and the method name.
func (lo *lockOrder) lockMethod(call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", false
	}
	tv, okT := lo.pass.Info().Types[sel.X]
	if !okT || mutexKind(tv.Type) == "" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// classOf derives the lock class for a mutex receiver expression.
func (lo *lockOrder) classOf(recv ast.Expr) lockClass {
	if sel, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok {
		if tv, ok := lo.pass.Info().Types[sel.X]; ok {
			if n := namedType(tv.Type); n != nil {
				return lockClass{Type: n.Obj().Name(), Field: sel.Sel.Name}
			}
		}
		return lockClass{Field: sel.Sel.Name}
	}
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		return lockClass{Field: id.Name}
	}
	return lockClass{Field: exprString(recv)}
}

// acquire records a Lock/RLock, checking self-deadlock and hierarchy.
func (lo *lockOrder) acquire(st *lockState, recv ast.Expr, write bool, pos token.Pos) {
	key := exprString(recv)
	class := lo.classOf(recv)
	if prev, ok := st.held[key]; ok && (write || prev.write) {
		lo.pass.Reportf(pos, "acquiring %s while already holding it (self-deadlock)", key)
	}
	for _, h := range st.held {
		if h.key == key {
			continue
		}
		if h.class == class {
			lo.pass.Reportf(pos, "acquiring %s while holding %s of the same class %s (undeclared nesting)", key, h.key, class)
			continue
		}
		if hierarchyForbids(h.class, class) {
			lo.pass.Reportf(pos, "acquiring %s while %s is held inverts the declared lock order (%s before %s)", key, h.key, class, h.class)
		}
	}
	st.held[key] = &heldLock{key: key, class: class, write: write, pos: pos}
}

// release discharges a Lock/RLock; unknown keys (locked by a caller or
// merged away) are ignored.
func (lo *lockOrder) release(st *lockState, recv ast.Expr) {
	delete(st.held, exprString(recv))
}

// walkStmts interprets a statement list against st, reporting as it goes.
// It returns true when every path through the list terminates (return,
// panic, or os.Exit) — callers then skip balance merging.
func (lo *lockOrder) walkStmts(stmts []ast.Stmt, st *lockState) bool {
	for _, stmt := range stmts {
		if lo.walkStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (lo *lockOrder) walkStmt(stmt ast.Stmt, st *lockState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, method, ok := lo.lockMethod(call); ok {
				switch method {
				case "Lock":
					lo.acquire(st, recv, true, call.Pos())
				case "RLock":
					lo.acquire(st, recv, false, call.Pos())
				case "Unlock", "RUnlock":
					lo.release(st, recv)
				}
				return false
			}
			if lo.isPanicOrExit(call) {
				return true
			}
		}
		lo.checkExpr(s.X, st)
	case *ast.DeferStmt:
		if recv, method, ok := lo.lockMethod(s.Call); ok {
			if method == "Unlock" || method == "RUnlock" {
				if h, held := st.held[exprString(recv)]; held {
					h.deferred = true
				}
			}
			return false
		}
		// Other deferred calls run after the section; their bodies are
		// checked when their own declarations are walked.
		for _, arg := range s.Call.Args {
			lo.checkExpr(arg, st)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lo.checkExpr(e, st)
		}
		for _, e := range s.Lhs {
			lo.checkExpr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lo.checkExpr(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		lo.checkExpr(s.X, st)
	case *ast.SendStmt:
		lo.checkExpr(s.Chan, st)
		lo.checkExpr(s.Value, st)
		if h := st.anyWriteHeld(); h != nil {
			lo.pass.Reportf(s.Arrow, "blocking channel send while %s is write-locked", h.key)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lo.checkExpr(e, st)
		}
		for _, h := range st.held {
			if !h.deferred && !st.tainted[h.key] {
				lo.pass.Reportf(s.Pos(), "return with %s still locked", h.key)
			}
		}
		return true
	case *ast.BlockStmt:
		return lo.walkStmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st)
		}
		lo.checkExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := lo.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = lo.walkStmt(s.Else, elseSt)
		}
		return lo.mergeBranches(st, thenSt, thenTerm, elseSt, elseTerm)
	case *ast.ForStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			lo.checkExpr(s.Cond, st)
		}
		// The body is checked for violations against the pre-loop state;
		// its lock effects are treated as balanced within one iteration.
		bodySt := st.clone()
		lo.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			lo.walkStmt(s.Post, bodySt)
		}
	case *ast.RangeStmt:
		lo.checkExpr(s.X, st)
		bodySt := st.clone()
		lo.walkStmts(s.Body.List, bodySt)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			lo.checkExpr(s.Tag, st)
		}
		lo.walkCaseBodies(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st)
		}
		lo.walkCaseBodies(s.Body, st)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if h := st.anyWriteHeld(); h != nil && !hasDefault {
			lo.pass.Reportf(s.Pos(), "blocking select while %s is write-locked", h.key)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				caseSt := st.clone()
				lo.walkStmts(cc.Body, caseSt)
			}
		}
	case *ast.GoStmt:
		// Launching a goroutine never blocks; the literal's body is walked
		// with a fresh state by runLockOrder.
		for _, arg := range s.Call.Args {
			lo.checkExpr(arg, st)
		}
	case *ast.LabeledStmt:
		return lo.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto end this path conservatively: lock balance
		// past them is the surrounding loop's concern.
		return true
	}
	return false
}

// walkCaseBodies runs each case clause of a switch on a cloned state.
func (lo *lockOrder) walkCaseBodies(body *ast.BlockStmt, st *lockState) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				lo.checkExpr(e, st)
			}
			caseSt := st.clone()
			lo.walkStmts(cc.Body, caseSt)
		}
	}
}

// mergeBranches reconciles the two arms of an if back into st.
func (lo *lockOrder) mergeBranches(st, thenSt *lockState, thenTerm bool, elseSt *lockState, elseTerm bool) bool {
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		lo.adopt(st, elseSt)
	case elseTerm:
		lo.adopt(st, thenSt)
	default:
		// Both arms fall through: keys on which they disagree become
		// tainted — held conservatively for blocking checks, exempt from
		// balance reports.
		merged := newLockState()
		for k := range thenSt.tainted {
			merged.tainted[k] = true
		}
		for k := range elseSt.tainted {
			merged.tainted[k] = true
		}
		for k, h := range thenSt.held {
			if h2, ok := elseSt.held[k]; ok && h2.write == h.write {
				cp := *h
				cp.deferred = h.deferred && h2.deferred
				merged.held[k] = &cp
			} else {
				cp := *h
				merged.held[k] = &cp
				merged.tainted[k] = true
			}
		}
		for k, h := range elseSt.held {
			if _, ok := merged.held[k]; !ok {
				cp := *h
				merged.held[k] = &cp
				merged.tainted[k] = true
			}
		}
		lo.adopt(st, merged)
	}
	return false
}

// adopt replaces st's contents with from's.
func (lo *lockOrder) adopt(st, from *lockState) {
	st.held = from.held
	st.tainted = from.tainted
}

// isPanicOrExit reports calls that terminate the path.
func (lo *lockOrder) isPanicOrExit(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := lo.pass.Info().Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	if f := callee(lo.pass.Info(), call); f != nil {
		k := callKey(f)
		return k == "os.Exit" || k == "runtime.Goexit" ||
			strings.HasPrefix(k, "log.Fatal") || strings.HasPrefix(k, "log.(Logger).Fatal")
	}
	return false
}

// checkExpr inspects an expression for blocking operations and descends
// into static callees when a write lock is held.
func (lo *lockOrder) checkExpr(expr ast.Expr, st *lockState) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Separate root; see runLockOrder.
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if h := st.anyWriteHeld(); h != nil {
					lo.pass.Reportf(x.OpPos, "blocking channel receive while %s is write-locked", h.key)
				}
			}
		case *ast.CallExpr:
			h := st.anyWriteHeld()
			if h == nil {
				return true
			}
			if _, _, isLock := lo.lockMethod(x); isLock {
				return true
			}
			lo.checkCallUnderLock(x, st, h)
		}
		return true
	})
}

// checkCallUnderLock classifies one call made while h is write-held.
func (lo *lockOrder) checkCallUnderLock(call *ast.CallExpr, st *lockState, h *heldLock) {
	f := callee(lo.pass.Info(), call)
	if f == nil {
		return
	}
	if desc, bad := blockingCalls[callKey(f)]; bad {
		lo.pass.Reportf(call.Pos(), "%s while %s is write-locked", desc, h.key)
		return
	}
	if desc, bad := blockingNames[f.Name()]; bad && lo.moduleLocal(funcPkgPath(f)) {
		lo.pass.Reportf(call.Pos(), "%s (%s) while %s is write-locked", desc, f.Name(), h.key)
		return
	}
	// Descend into module-local callees with bodies.
	sum := lo.summarize(f, 0)
	if sum == nil {
		return
	}
	for _, b := range sum.blocking {
		lo.pass.Reportf(call.Pos(), "call to %s may block while %s is write-locked: %s", f.Name(), h.key, b.desc)
	}
	for _, acq := range sum.acquires {
		for _, held := range st.held {
			if held.class == acq {
				lo.pass.Reportf(call.Pos(), "call to %s re-acquires %s while it is already held (self-deadlock)", f.Name(), acq)
			} else if hierarchyForbids(held.class, acq) {
				lo.pass.Reportf(call.Pos(), "call to %s acquires %s while %s is held — inverts the declared lock order", f.Name(), acq, held.key)
			}
		}
	}
}

const maxSummaryDepth = 8

// summarize computes (and memoizes) the transitive blocking operations and
// lock acquisitions of a function with a known body; unknown bodies return
// nil.
func (lo *lockOrder) summarize(f *types.Func, depth int) *funcSummary {
	if sum, ok := lo.summaries[f]; ok {
		return sum
	}
	if depth > maxSummaryDepth || lo.inFlight[f] {
		return nil
	}
	fd, pkg := lo.pass.Pkg.loader.FuncDecl(f)
	if fd == nil || fd.Body == nil {
		return nil
	}
	lo.inFlight[f] = true
	defer delete(lo.inFlight, f)

	sum := &funcSummary{}
	seenAcq := make(map[lockClass]bool)
	addAcq := func(c lockClass) {
		if !seenAcq[c] {
			seenAcq[c] = true
			sum.acquires = append(sum.acquires, c)
		}
	}
	// selectDepth tracks whether a node sits inside a select that has a
	// default clause — its channel operations never block.
	var nonBlockingSelects []ast.Node
	inNonBlockingSelect := func(pos token.Pos) bool {
		for _, sel := range nonBlockingSelects {
			if sel.Pos() <= pos && pos <= sel.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				nonBlockingSelects = append(nonBlockingSelects, x)
			} else {
				sum.blocking = append(sum.blocking, blockFact{pos: x.Pos(), desc: "blocking select in " + f.Name()})
			}
		case *ast.SendStmt:
			if !inNonBlockingSelect(x.Pos()) {
				sum.blocking = append(sum.blocking, blockFact{pos: x.Pos(), desc: "channel send in " + f.Name()})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inNonBlockingSelect(x.Pos()) {
				sum.blocking = append(sum.blocking, blockFact{pos: x.Pos(), desc: "channel receive in " + f.Name()})
			}
		case *ast.CallExpr:
			if recv, method, ok := lockMethodIn(pkg, x); ok {
				if method == "Lock" || method == "RLock" {
					addAcq(classOfIn(pkg, recv))
				}
				return true
			}
			g := callee(pkg.Info, x)
			if g == nil {
				return true
			}
			if desc, bad := blockingCalls[callKey(g)]; bad {
				sum.blocking = append(sum.blocking, blockFact{pos: x.Pos(), desc: desc + " in " + f.Name()})
				return true
			}
			if desc, bad := blockingNames[g.Name()]; bad && lo.moduleLocal(funcPkgPath(g)) {
				sum.blocking = append(sum.blocking, blockFact{pos: x.Pos(), desc: fmt.Sprintf("%s (%s) in %s", desc, g.Name(), f.Name())})
				return true
			}
			if inner := lo.summarize(g, depth+1); inner != nil {
				for _, b := range inner.blocking {
					sum.blocking = append(sum.blocking, blockFact{pos: x.Pos(), desc: f.Name() + " → " + b.desc})
				}
				for _, c := range inner.acquires {
					addAcq(c)
				}
			}
		}
		return true
	})
	lo.summaries[f] = sum
	return sum
}

// lockMethodIn is lockMethod against an arbitrary package's type info.
func lockMethodIn(pkg *Package, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || mutexKind(tv.Type) == "" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// classOfIn is classOf against an arbitrary package's type info.
func classOfIn(pkg *Package, recv ast.Expr) lockClass {
	if sel, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok {
		if tv, ok := pkg.Info.Types[sel.X]; ok {
			if n := namedType(tv.Type); n != nil {
				return lockClass{Type: n.Obj().Name(), Field: sel.Sel.Name}
			}
		}
		return lockClass{Field: sel.Sel.Name}
	}
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		return lockClass{Field: id.Name}
	}
	return lockClass{Field: exprString(recv)}
}
