package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// BufOwn is a path-sensitive linear-ownership checker for the
// refcounted wire-buffer pool. Every pvm.Message drawn from the mailbox
// (Recv, RecvTimeout, RecvContext, TryRecv, the elements of
// TryRecvAll) holds one reference to a pooled wire record; the holder
// must release it on every path, exactly once, and must not touch the
// wire bytes afterwards. The analyzer interprets each function body
// path-sensitively over a small ownership lattice
//
//	owned → released | transferred | escaped
//
// with a Maybe* tier for states weakened at joins, and reports
//
//   - a message still owned at a return, a panic, or the end of its
//     block (the leak on an early error return is the classic case);
//   - a second Release, including an explicit Release with a deferred
//     one pending;
//   - Buffer() on a released message, or any use of a *Buffer that
//     aliases one — the bytes may already back an unrelated message;
//   - a Send of a buffer whose ownership was already transferred by an
//     earlier Send, and a Pack* into it afterwards — the fabric owns
//     the sent buffer's bytes;
//   - a store, append or copy into a []byte payload after Ctx.Send
//     queued it (a sub-slice send covers the whole slice): engines may
//     deliver the sender's bytes without copying;
//   - Release while the message's bytes are in flight: m.Buffer()
//     wraps the pooled record, so handing it to Send and then releasing
//     recycles bytes the receiver hasn't read yet.
//
// A *Buffer not built in this body (a parameter) is tracked from its
// first send. Rebinding a local to a fresh value resets its tracking.
// Deferred sends replay at every exit in LIFO order, the order they
// execute, so packing below a `defer t.Send(…, buf)` is not a
// pack-after-send.
//
// The checker is deliberately conservative at joins: a state weakened
// to MaybeOwned or MaybeTransferred never reports a leak on its own
// (only a definite re-send does), acquisition guarded by the idiomatic
// `m, err := t.Recv(...); if err != nil { return err }` refines to
// unowned on the error arm, and a message handed to any call, stored,
// returned, or captured by a closure escapes the analysis. Audited
// exceptions carry `//hbspk:ignore bufown`.
var BufOwn = &Analyzer{
	Name: "bufown",
	Doc:  "enforce release-exactly-once ownership of pooled wire buffers and no reuse of sent data, path-sensitively",
	Run:  runBufOwn,
}

func runBufOwn(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			w := &ownWalker{pass: pass, reported: make(map[token.Pos]bool)}
			w.lastRange = collectLastRanges(pass.TypesInfo, body)
			env := newOwnEnv()
			fl := w.stmts(body.List, env)
			if fl == flowNormal {
				w.runDefers(env)
			}
			w.settle(nil, fl, env)
		})
	}
	return nil
}

// collectLastRanges maps each ranged-over local to the final RangeStmt
// that iterates it. Ownership of a drained batch is consumed once, by
// the last loop over it; earlier passes (sizing, validation) borrow the
// elements without taking on the release obligation.
func collectLastRanges(info *types.Info, body *ast.BlockStmt) map[types.Object]*ast.RangeStmt {
	last := make(map[types.Object]*ast.RangeStmt)
	ast.Inspect(body, func(n ast.Node) bool {
		if st, ok := n.(*ast.RangeStmt); ok {
			if obj := identObj(info, st.X); obj != nil {
				last[obj] = st
			}
		}
		return true
	})
	return last
}

// ownState is the per-resource lattice. The Maybe tier records joins
// that weakened a definite state; every rule that reports on a definite
// state stays silent on its Maybe counterpart, except the re-send of a
// MaybeTransferred buffer, which is a bug on the path that sent it.
type ownState int

const (
	stOwned ownState = iota
	stMaybeOwned
	stUnowned // acquisition failed on this path (err != nil arm)
	stReleased
	stTransferred
	stMaybeTransferred
	stEscaped
)

const (
	resMsg     = iota // a pvm.Message holding a wire reference
	resBuf            // a *pvm.Buffer from NewBuffer (send-side)
	resPayload        // a []byte queued by Ctx.Send; always transferred
)

// res is the tracked state of one message, buffer or payload local.
type res struct {
	kind     int
	state    ownState
	acq      token.Pos    // acquisition site, for leak messages
	pairObj  types.Object // the err/ok bound with the acquisition
	pairIsOk bool         // pairObj is TryRecv's bool, not an error
	deferred bool         // a defer m.Release() is registered
	sentAt   token.Pos    // where ownership transferred
	aliasOf  types.Object // buffer local -> owning message
	elemOf   types.Object // range element -> its TryRecvAll slice
}

// ownEnv maps locals to ownership state; sliceSrc marks locals holding
// a TryRecvAll result whose elements acquire ownership when ranged;
// defers lists the deferred sends pending on this path, in push order.
type ownEnv struct {
	vars     map[types.Object]*res
	sliceSrc map[types.Object]bool
	defers   []*ast.CallExpr
}

func newOwnEnv() *ownEnv {
	return &ownEnv{vars: make(map[types.Object]*res), sliceSrc: make(map[types.Object]bool)}
}

func (e *ownEnv) clone() *ownEnv {
	c := newOwnEnv()
	for obj, r := range e.vars {
		cp := *r
		c.vars[obj] = &cp
	}
	for obj := range e.sliceSrc {
		c.sliceSrc[obj] = true
	}
	c.defers = append(c.defers, e.defers...)
	return c
}

// merge folds b into a at a control-flow join. States agree or weaken:
// the Maybe tier absorbs disagreement, escape absorbs everything, and a
// resource tracked on only one side keeps its state (it was declared in
// that arm; its block-end check already ran).
func (e *ownEnv) merge(b *ownEnv) {
	for obj, rb := range b.vars {
		ra, ok := e.vars[obj]
		if !ok {
			cp := *rb
			e.vars[obj] = &cp
			continue
		}
		ra.deferred = ra.deferred && rb.deferred
		if ra.state == rb.state {
			continue
		}
		ra.state = joinState(ra.state, rb.state)
		if ra.sentAt == 0 {
			ra.sentAt = rb.sentAt
		}
	}
	for obj := range b.sliceSrc {
		e.sliceSrc[obj] = true
	}
	for _, d := range b.defers {
		if !slices.Contains(e.defers, d) {
			e.defers = append(e.defers, d)
		}
	}
}

func joinState(a, b ownState) ownState {
	if a == stEscaped || b == stEscaped {
		return stEscaped
	}
	hasOwned := a == stOwned || b == stOwned || a == stMaybeOwned || b == stMaybeOwned
	hasTransferred := a == stTransferred || b == stTransferred || a == stMaybeTransferred || b == stMaybeTransferred
	switch {
	case hasTransferred && hasOwned:
		return stMaybeTransferred
	case hasTransferred:
		return stTransferred
	case hasOwned:
		return stMaybeOwned
	}
	return stReleased // released ⊔ unowned: obligation met either way
}

// flow classifies how a statement list ends.
type flow int

const (
	flowNormal flow = iota
	flowJump        // break/continue/goto: leaves the block, not the function
	flowExit        // return or panic
)

// ownWalker interprets one function body. quiet suppresses reports
// during the pre-merge pass over loop bodies; reported dedupes the
// replayed pass.
type ownWalker struct {
	pass      *Pass
	quiet     int
	reported  map[token.Pos]bool
	lastRange map[types.Object]*ast.RangeStmt
}

func (w *ownWalker) reportf(pos, end token.Pos, format string, args ...any) {
	if w.quiet > 0 || w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.ReportRangef(pos, end, format, args...)
}

// block interprets a statement list, then settles the resources
// acquired inside it.
func (w *ownWalker) block(stmts []ast.Stmt, env *ownEnv) flow {
	before := make(map[types.Object]bool, len(env.vars))
	for obj := range env.vars {
		before[obj] = true
	}
	fl := w.stmts(stmts, env)
	w.settle(before, fl, env)
	return fl
}

// settle leak-checks every message acquired in a finished block (those
// not in before) that is still definitely owned on the fallthrough exit
// — the variable's scope is over, so nothing can release it later — and
// drops them. Sent payloads stay tracked: Send marks a variable that
// may be declared outside the block.
func (w *ownWalker) settle(before map[types.Object]bool, fl flow, env *ownEnv) {
	for obj, r := range env.vars {
		if before[obj] || r.kind == resPayload {
			continue
		}
		if fl == flowNormal && r.kind == resMsg && r.state == stOwned && !r.deferred {
			w.reportf(r.acq, r.acq,
				"wire message %q is not released on every path: the pooled buffer leaks", obj.Name())
		}
		delete(env.vars, obj)
	}
}

func (w *ownWalker) stmts(stmts []ast.Stmt, env *ownEnv) flow {
	for _, s := range stmts {
		if fl := w.stmt(s, env); fl != flowNormal {
			return fl
		}
	}
	return flowNormal
}

// runDefers replays the deferred sends pending on this path, last
// pushed first: the order they execute on the way out.
func (w *ownWalker) runDefers(env *ownEnv) {
	for i := len(env.defers) - 1; i >= 0; i-- {
		w.useExpr(env.defers[i], env)
	}
}

// exitCheck runs the pending deferred sends, then reports every message
// still definitely owned when the function exits here; deferred
// releases and escapes discharge the obligation, Maybe states stay
// silent by design.
func (w *ownWalker) exitCheck(pos, end token.Pos, env *ownEnv, onPanic bool) {
	w.runDefers(env)
	for obj, r := range env.vars {
		if r.kind != resMsg || r.state != stOwned || r.deferred {
			continue
		}
		if onPanic {
			w.reportf(pos, end,
				"wire message %q (acquired at line %d) leaks if this panic unwinds: release it with defer",
				obj.Name(), w.pass.Fset.Position(r.acq).Line)
		} else {
			w.reportf(pos, end,
				"wire message %q (acquired at line %d) is not released on this return path",
				obj.Name(), w.pass.Fset.Position(r.acq).Line)
		}
	}
}

func (w *ownWalker) stmt(s ast.Stmt, env *ownEnv) flow {
	switch st := s.(type) {
	case nil:
		return flowNormal
	case *ast.BlockStmt:
		return w.block(st.List, env)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if id, isId := ast.Unparen(call.Fun).(*ast.Ident); isId && id.Name == "panic" {
				w.useExprs(call.Args, env)
				w.exitCheck(call.Pos(), call.End(), env, true)
				return flowExit
			}
		}
		w.useExpr(st.X, env)
		return flowNormal
	case *ast.ReturnStmt:
		// Returned resources transfer to the caller before the leak
		// check: `return m, nil` hands the obligation over.
		for _, e := range st.Results {
			if obj := identObj(w.pass.TypesInfo, e); obj != nil {
				if r, ok := env.vars[obj]; ok {
					r.state = stEscaped
					continue
				}
			}
			w.useExpr(e, env)
		}
		w.exitCheck(st.Pos(), st.End(), env, false)
		return flowExit
	case *ast.BranchStmt:
		return flowJump
	case *ast.AssignStmt:
		w.assign(st, env)
		return flowNormal
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.useExpr(v, env)
					}
					for _, name := range vs.Names {
						delete(env.vars, w.pass.TypesInfo.Defs[name])
					}
				}
			}
		}
		return flowNormal
	case *ast.DeferStmt:
		w.deferStmt(st, env)
		return flowNormal
	case *ast.GoStmt:
		// The goroutine's schedule is unknowable: everything it touches
		// escapes.
		w.escapeIn(st.Call, env)
		return flowNormal
	case *ast.SendStmt:
		// A tracked value sent bare changes hands; calls in the sent
		// value are evaluated (errs <- t.Send(a, 1, buf) sends buf).
		w.useExpr(st.Chan, env)
		if obj := identObj(w.pass.TypesInfo, st.Value); obj != nil {
			w.escapeObj(obj, env)
		} else {
			w.useExpr(st.Value, env)
		}
		return flowNormal
	case *ast.IncDecStmt:
		w.storeTo(st.X, env)
		w.useExpr(st.X, env)
		return flowNormal
	case *ast.IfStmt:
		return w.ifStmt(st, env)
	case *ast.ForStmt:
		w.stmt(st.Init, env)
		w.useExpr(st.Cond, env)
		w.loopBody(func(e *ownEnv) flow {
			fl := w.block(st.Body.List, e)
			w.stmt(st.Post, e)
			return fl
		}, env)
		return flowNormal
	case *ast.RangeStmt:
		return w.rangeStmt(st, env)
	case *ast.SwitchStmt:
		w.stmt(st.Init, env)
		w.useExpr(st.Tag, env)
		return w.caseArms(st.Body.List, env)
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init, env)
		w.stmt(st.Assign, env)
		return w.caseArms(st.Body.List, env)
	case *ast.SelectStmt:
		var arms [][]ast.Stmt
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			body := cc.Body
			if cc.Comm != nil {
				body = append([]ast.Stmt{cc.Comm}, body...)
			}
			arms = append(arms, body)
		}
		return w.joinArms(arms, true, env)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, env)
	}
	return flowNormal
}

// caseArms interprets a switch body: each clause from a copy of the
// incoming state, joined afterwards, with an implicit empty arm when no
// default exists.
func (w *ownWalker) caseArms(clauses []ast.Stmt, env *ownEnv) flow {
	hasDefault := false
	var arms [][]ast.Stmt
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.useExpr(e, env)
		}
		arms = append(arms, cc.Body)
	}
	return w.joinArms(arms, !hasDefault, env)
}

// joinArms runs each arm from a clone of env and merges the survivors;
// implicitEmpty adds the fall-past arm of a switch without default (or
// a select that may not fire any tracked case).
func (w *ownWalker) joinArms(arms [][]ast.Stmt, implicitEmpty bool, env *ownEnv) flow {
	var outs []*ownEnv
	allExit := len(arms) > 0
	for _, body := range arms {
		e := env.clone()
		fl := w.block(body, e)
		if fl != flowExit {
			allExit = false
		}
		if fl != flowExit {
			outs = append(outs, e)
		}
	}
	if implicitEmpty {
		outs = append(outs, env.clone())
		allExit = false
	}
	if len(outs) == 0 {
		if allExit {
			return flowExit
		}
		return flowNormal
	}
	first := outs[0]
	for _, o := range outs[1:] {
		first.merge(o)
	}
	*env = *first
	return flowNormal
}

// loopBody interprets a loop body twice: a quiet pass whose result is
// merged into the entry state (the back edge), then a reporting pass
// over the weakened state, so a Release or Send that reaches itself
// around the loop is caught without double-reporting.
func (w *ownWalker) loopBody(body func(*ownEnv) flow, env *ownEnv) {
	pre := env.clone()
	w.quiet++
	probe := env.clone()
	body(probe)
	w.quiet--
	pre.merge(probe)
	out := pre.clone()
	body(out)
	pre.merge(out)
	*env = *pre
}

func (w *ownWalker) ifStmt(st *ast.IfStmt, env *ownEnv) flow {
	w.stmt(st.Init, env)
	w.useExpr(st.Cond, env)

	thenEnv := env.clone()
	elseEnv := env.clone()
	w.refine(st.Cond, thenEnv, elseEnv)

	thenFl := w.block(st.Body.List, thenEnv)
	elseFl := flowNormal
	switch e := st.Else.(type) {
	case *ast.BlockStmt:
		elseFl = w.block(e.List, elseEnv)
	case *ast.IfStmt:
		elseFl = w.ifStmt(e, elseEnv)
	}

	switch {
	case thenFl == flowExit && elseFl == flowExit:
		return flowExit
	case thenFl == flowExit:
		*env = *elseEnv
		return elseFl
	case elseFl == flowExit:
		*env = *thenEnv
		return thenFl
	default:
		thenEnv.merge(elseEnv)
		*env = *thenEnv
		if thenFl == flowJump && elseFl == flowJump {
			return flowJump
		}
		return flowNormal
	}
}

// refine narrows acquisition state through the guard idioms: in
// `if err != nil`, the then-arm's paired message was never delivered;
// in `if ok` (TryRecv), the then-arm owns it and the else-arm does not.
// A guard mentioning the paired variable in any shape the refiner does
// not recognize weakens the message to MaybeOwned on both arms.
func (w *ownWalker) refine(cond ast.Expr, thenEnv, elseEnv *ownEnv) {
	if cond == nil {
		return
	}
	handled := make(map[types.Object]bool)
	setPair := func(pair types.Object, unownedArm *ownEnv) {
		for obj, r := range thenEnv.vars { // clones share the key set
			if r.pairObj != pair {
				continue
			}
			handled[pair] = true
			if ru := unownedArm.vars[obj]; ru != nil && ru.state == stOwned {
				ru.state = stUnowned
			}
		}
	}
	var apply func(e ast.Expr)
	apply = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			if x.Op == token.LAND {
				// Both operands hold on the then-arm; the else-arm learns
				// nothing, which is sound (no refinement there).
				applyThenOnly(w, x.X, thenEnv, handled)
				applyThenOnly(w, x.Y, thenEnv, handled)
				return
			}
			obj, isNil := nilCompare(w.pass.TypesInfo, x)
			if obj == nil {
				return
			}
			if x.Op == token.NEQ && isNil { // err != nil: then-arm unowned
				setPair(obj, thenEnv)
			} else if x.Op == token.EQL && isNil { // err == nil: else-arm unowned
				setPair(obj, elseEnv)
			}
		case *ast.UnaryExpr:
			if x.Op == token.NOT { // !ok: then-arm unowned
				if obj := identObj(w.pass.TypesInfo, x.X); obj != nil {
					setPair(obj, thenEnv)
				}
			}
		case *ast.Ident: // bare ok: else-arm unowned
			if obj := identObj(w.pass.TypesInfo, x); obj != nil {
				setPair(obj, elseEnv)
			}
		}
	}
	apply(cond)

	// Unrecognized guards over a paired variable: weaken rather than
	// guess, so neither arm can report a definite leak.
	ast.Inspect(cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		pair := identObj(w.pass.TypesInfo, id)
		if pair == nil || handled[pair] {
			return true
		}
		for _, e := range []*ownEnv{thenEnv, elseEnv} {
			for _, r := range e.vars {
				if r.pairObj == pair && r.state == stOwned {
					r.state = stMaybeOwned
				}
			}
		}
		return true
	})
}

// applyThenOnly refines one conjunct of an && guard on the then-arm.
func applyThenOnly(w *ownWalker, e ast.Expr, thenEnv *ownEnv, handled map[types.Object]bool) {
	refineArm := func(pair types.Object, unowned bool) {
		for obj, r := range thenEnv.vars {
			if r.pairObj != pair {
				continue
			}
			handled[pair] = true
			if unowned && r.state == stOwned {
				thenEnv.vars[obj].state = stUnowned
			}
		}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		obj, isNil := nilCompare(w.pass.TypesInfo, x)
		if obj != nil && isNil {
			refineArm(obj, x.Op == token.NEQ)
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			if obj := identObj(w.pass.TypesInfo, x.X); obj != nil {
				refineArm(obj, true)
			}
		}
	case *ast.Ident:
		if obj := identObj(w.pass.TypesInfo, x); obj != nil {
			refineArm(obj, false)
		}
	}
}

// nilCompare decomposes `x != nil` / `x == nil`, returning x's object.
func nilCompare(info *types.Info, x *ast.BinaryExpr) (types.Object, bool) {
	isNilIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if isNilIdent(x.Y) {
		return identObj(info, x.X), true
	}
	if isNilIdent(x.X) {
		return identObj(info, x.Y), true
	}
	return nil, false
}
