package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The tracking half of bufown: recognizing acquisitions (Recv and
// friends, NewBuffer chains, Buffer() aliases), interpreting uses, and
// the escape rules that retire a resource from the analysis.

// recvPairNames are the mailbox draws returning (Message, error) or
// (Message, bool); the second result is the acquisition guard.
var recvPairNames = map[string]bool{
	"Recv": true, "RecvTimeout": true, "RecvContext": true, "TryRecv": true,
}

// sendNames transfer ownership of a *Buffer argument to the fabric.
var sendNames = map[string]bool{"Send": true, "Mcast": true, "SendBatch": true}

func isMessageType(t types.Type) bool { return typeNameOf(t) == "Message" }

func (w *ownWalker) assign(st *ast.AssignStmt, env *ownEnv) {
	info := w.pass.TypesInfo

	// Guarded acquisition: m, err := t.Recv(...) / m, ok := t.TryRecv(...).
	if len(st.Lhs) == 2 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			fn := calleeFunc(info, call)
			if fn != nil && recvPairNames[fn.Name()] && isMessageType(resultType(fn, 0)) {
				w.useExpr(call, env)
				mObj := identObj(info, st.Lhs[0])
				if mObj != nil {
					env.vars[mObj] = &res{
						kind:     resMsg,
						state:    stOwned,
						acq:      st.Lhs[0].Pos(),
						pairObj:  identObj(info, st.Lhs[1]),
						pairIsOk: fn.Name() == "TryRecv",
					}
				}
				return
			}
		}
	}

	if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			fn := calleeFunc(info, call)
			lhsObj := identObj(info, st.Lhs[0])
			switch {
			// msgs := t.TryRecvAll(...): elements acquire when ranged.
			case fn != nil && fn.Name() == "TryRecvAll" && lhsObj != nil:
				w.useExpr(call, env)
				env.sliceSrc[lhsObj] = true
				return
			// buf := NewBuffer().Pack...(...): a send-side buffer,
			// tracked for the ownership transfer at its Send.
			case lhsObj != nil && newBufferChain(info, call):
				w.useExpr(call, env)
				env.vars[lhsObj] = &res{kind: resBuf, state: stOwned, acq: st.Lhs[0].Pos()}
				return
			// b := m.Buffer(): b aliases m's pooled wire record.
			case fn != nil && fn.Name() == "Buffer" && lhsObj != nil:
				if mObj := identObj(info, receiverExpr(call)); mObj != nil {
					if r, tracked := env.vars[mObj]; tracked && r.kind == resMsg {
						w.useExpr(call, env) // use-after-release check on m
						env.vars[lhsObj] = &res{kind: resBuf, state: stOwned, acq: st.Lhs[0].Pos(), aliasOf: mObj}
						return
					}
				}
			}
		}
	}

	// Everything else: evaluate the right side, escape tracked values
	// that flow somewhere we cannot follow, and rebind overwritten
	// locals to untracked.
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0]
		}
		if rhs != nil {
			w.useExpr(rhs, env)
			// m2 := m / x.field = m: the value now has a second name or
			// lives in the heap; both retire it.
			if obj := identObj(info, rhs); obj != nil {
				w.escapeObj(obj, env)
			}
		}
		if obj := identObj(info, lhs); obj != nil {
			// payload = append(payload, …) still aliases the sent bytes.
			if r := env.vars[obj]; r != nil && r.kind == resPayload && rhs != nil && exprMentions(info, rhs, obj) {
				continue
			}
			delete(env.vars, obj)
			delete(env.sliceSrc, obj)
		} else {
			w.storeTo(lhs, env)
			w.useExpr(lhs, env)
		}
	}
}

// resultType returns fn's i-th result type, or nil.
func resultType(fn *types.Func, i int) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() <= i {
		return nil
	}
	return sig.Results().At(i).Type()
}

// newBufferChain reports whether call is NewBuffer() or a Pack chain
// rooted at one (Pack methods return their receiver).
func newBufferChain(info *types.Info, call *ast.CallExpr) bool {
	if typeNameOf(info.TypeOf(call)) != "Buffer" {
		return false
	}
	for {
		fn := calleeFunc(info, call)
		if fn != nil && fn.Name() == "NewBuffer" {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		call = inner
	}
}

func (w *ownWalker) useExprs(es []ast.Expr, env *ownEnv) {
	for _, e := range es {
		w.useExpr(e, env)
	}
}

// useExpr walks an expression, dispatching calls to evalCall and
// escaping resources captured by closures or composite values.
func (w *ownWalker) useExpr(e ast.Expr, env *ownEnv) {
	if e == nil {
		return
	}
	info := w.pass.TypesInfo
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.escapeIn(x, env)
			return false
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if obj := identObj(info, elt); obj != nil {
					w.escapeObj(obj, env)
				}
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if obj := identObj(info, kv.Value); obj != nil {
						w.escapeObj(obj, env)
					}
				}
			}
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if obj := identObj(info, x.X); obj != nil {
					w.escapeObj(obj, env)
				}
			}
			return true
		case *ast.CallExpr:
			w.evalCall(x, env)
			return true
		}
		return true
	})
}

// escapeIn escapes every tracked resource mentioned anywhere in e.
func (w *ownWalker) escapeIn(e ast.Node, env *ownEnv) {
	info := w.pass.TypesInfo
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				w.escapeObj(obj, env)
			}
		}
		return true
	})
}

// escapeObj retires a tracked message, buffer or TryRecvAll slice. A
// sent payload never escapes: the write rule judges only this body's
// own writes, which stay wrong whoever else holds the slice.
func (w *ownWalker) escapeObj(obj types.Object, env *ownEnv) {
	if r, ok := env.vars[obj]; ok && r.kind != resPayload {
		r.state = stEscaped
	}
	if env.sliceSrc[obj] {
		w.escapeSlice(obj, env)
	}
}

// escapeSlice retires a TryRecvAll slice and the elements ranged from
// it: once the slice is handed to a call (releaseRest and friends), the
// callee owns the remaining messages.
func (w *ownWalker) escapeSlice(obj types.Object, env *ownEnv) {
	delete(env.sliceSrc, obj)
	for _, r := range env.vars {
		if r.elemOf == obj {
			r.state = stEscaped
		}
	}
}

// evalCall applies one call's ownership effects.
func (w *ownWalker) evalCall(call *ast.CallExpr, env *ownEnv) {
	info := w.pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if bi, ok := info.Uses[id].(*types.Builtin); ok && (bi.Name() == "append" || bi.Name() == "copy") {
			w.payloadWrite(bi.Name(), call.Args[0], call, env)
		}
	}
	fn := calleeFunc(info, call)
	name := ""
	if fn != nil {
		name = fn.Name()
	}
	robj := identObj(info, receiverExpr(call))
	var r *res
	if robj != nil {
		r = env.vars[robj]
	}

	switch {
	case name == "Release" && r != nil && r.kind == resMsg:
		switch r.state {
		case stReleased:
			w.reportf(call.Pos(), call.End(),
				"double release of wire message %q: its reference was already dropped", robj.Name())
		case stTransferred:
			w.reportf(call.Pos(), call.End(),
				"wire message %q released while its bytes are in flight (sent at line %d): the pool may recycle them before delivery",
				robj.Name(), w.pass.Fset.Position(r.sentAt).Line)
		case stOwned, stMaybeOwned, stUnowned:
			if r.deferred {
				w.reportf(call.Pos(), call.End(),
					"wire message %q released twice: a deferred Release is already pending", robj.Name())
			}
			r.state = stReleased
		}
		return
	case name == "Buffer" && r != nil && r.kind == resMsg:
		if r.state == stReleased {
			w.reportf(call.Pos(), call.End(),
				"Buffer() on released wire message %q: the bytes may already back another message", robj.Name())
		}
		return
	case r != nil && r.kind == resBuf:
		// Any data method on a *Buffer aliasing a dead message reads
		// (or writes) recycled pool bytes.
		owner := r
		ownerName := robj.Name()
		if r.aliasOf != nil {
			if or, ok := env.vars[r.aliasOf]; ok {
				owner = or
				ownerName = r.aliasOf.Name()
			}
		}
		switch {
		case owner.kind == resMsg && owner.state == stReleased:
			w.reportf(call.Pos(), call.End(),
				"use of buffer %q after message %q was released: the pooled bytes may be recycled", robj.Name(), ownerName)
		case !strings.HasPrefix(name, "Pack"):
		case owner.state == stTransferred:
			w.reportf(call.Pos(), call.End(),
				"%s into buffer %q already sent at line %d: the fabric owns the sent bytes, pack into a fresh buffer",
				name, ownerName, w.pass.Fset.Position(owner.sentAt).Line)
		case owner.state == stMaybeTransferred:
			w.reportf(call.Pos(), call.End(),
				"%s into buffer %q that may already have been sent on some paths: pack into a fresh buffer", name, ownerName)
		}
		return
	case sendNames[name]:
		w.sendCall(call, env)
		return
	case name == "panic" || name == "Release" || name == "Buffer":
		return
	}

	// Unknown callee: tracked values in argument position escape — the
	// callee may release, store, or forward them.
	for _, arg := range call.Args {
		// Skip the structural Pack/Unpack receivers already handled via
		// their own evalCall visit; only idents in the arg trees escape.
		ast.Inspect(arg, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				// A nested call's result is a fresh value; the call
				// itself is judged by its own evalCall visit.
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := identObj(info, id); obj != nil {
					w.escapeObj(obj, env)
				}
			}
			return true
		})
	}
}

// sendCall transfers ownership of *Buffer arguments to the fabric and
// reports re-sends — including on a state only some paths transferred,
// which is a bug on exactly those paths. Ctx.Send(dst, tag, payload)
// marks the payload's variable sent, whatever its earlier state.
func (w *ownWalker) sendCall(call *ast.CallExpr, env *ownEnv) {
	info := w.pass.TypesInfo
	for _, arg := range call.Args {
		obj := identObj(info, arg)
		if obj == nil {
			// SendBatch([]*Buffer{a, b}): transfer each element.
			if cl, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
				for _, elt := range cl.Elts {
					if eo := identObj(info, elt); eo != nil {
						w.transferBuf(elt, eo, env)
					}
				}
			}
			w.useExpr(arg, env)
			continue
		}
		r, tracked := env.vars[obj]
		switch {
		case !tracked && typeNameOf(obj.Type()) == "Buffer":
			// A buffer from elsewhere (a parameter, a field load) is
			// tracked from its first send on.
			env.vars[obj] = &res{kind: resBuf, state: stTransferred, sentAt: arg.Pos()}
		case !tracked:
		case r.kind == resBuf:
			w.transferBuf(arg, obj, env)
		default:
			w.escapeObj(obj, env)
		}
	}
	if rt := receiverType(info, call); rt != nil && isCtxType(rt) && len(call.Args) == 3 {
		if obj := payloadObj(info, call.Args[2]); obj != nil {
			env.vars[obj] = &res{kind: resPayload, state: stTransferred, sentAt: call.Args[2].Pos()}
		}
	}
}

func (w *ownWalker) transferBuf(at ast.Expr, obj types.Object, env *ownEnv) {
	r, ok := env.vars[obj]
	if !ok {
		return
	}
	target := r
	targetName := obj.Name()
	if r.aliasOf != nil {
		or, tracked := env.vars[r.aliasOf]
		if !tracked {
			return
		}
		if or.state == stReleased {
			w.reportf(at.Pos(), at.End(),
				"buffer %q sent after message %q was released: recycled pool bytes would go on the wire", obj.Name(), r.aliasOf.Name())
			return
		}
		target = or
		targetName = r.aliasOf.Name()
	}
	switch target.state {
	case stTransferred:
		w.reportf(at.Pos(), at.End(),
			"buffer %q sent again: ownership transferred to the fabric at line %d, a buffer is sendable exactly once",
			targetName, w.pass.Fset.Position(target.sentAt).Line)
	case stMaybeTransferred:
		w.reportf(at.Pos(), at.End(),
			"buffer %q may already have been sent on some paths: ownership would transfer twice", targetName)
	case stOwned, stMaybeOwned:
		target.state = stTransferred
		target.sentAt = at.Pos()
	}
}

func (w *ownWalker) rangeStmt(st *ast.RangeStmt, env *ownEnv) flow {
	info := w.pass.TypesInfo
	w.useExpr(st.X, env)

	// Ranging over a TryRecvAll result acquires one message per
	// iteration; each must be settled before the iteration ends.
	var srcObj, elemObj types.Object
	if obj := identObj(info, st.X); obj != nil && env.sliceSrc[obj] {
		// Only the final loop over the batch owns its elements; an
		// earlier pass (sizing, validation) borrows them.
		if w.lastRange[obj] == st {
			srcObj = obj
		}
	}
	if st.Value != nil {
		if vObj := identObj(info, st.Value); vObj != nil && isMessageType(vObj.Type()) {
			if srcObj != nil || rangesTryRecvAll(info, st.X) {
				elemObj = vObj
			}
		}
	}

	body := func(e *ownEnv) flow {
		// Each iteration binds the loop variables afresh.
		delete(e.vars, identObj(info, st.Key))
		delete(e.vars, identObj(info, st.Value))
		if elemObj != nil {
			e.vars[elemObj] = &res{kind: resMsg, state: stOwned, acq: st.Value.Pos(), elemOf: srcObj}
		}
		fl := w.block(st.Body.List, e)
		if elemObj != nil {
			if r, ok := e.vars[elemObj]; ok {
				if fl == flowNormal && r.state == stOwned && !r.deferred {
					w.reportf(st.Value.Pos(), st.Value.End(),
						"wire message %q from TryRecvAll is not released on every path through the loop body", elemObj.Name())
				}
				delete(e.vars, elemObj)
			}
		}
		return fl
	}
	w.loopBody(body, env)
	return flowNormal
}

// rangesTryRecvAll reports whether e is a direct TryRecvAll call.
func rangesTryRecvAll(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "TryRecvAll"
}

func (w *ownWalker) deferStmt(st *ast.DeferStmt, env *ownEnv) {
	info := w.pass.TypesInfo
	call := st.Call

	fn := calleeFunc(info, call)

	// defer t.Send(…, buf): the transfer happens on the way out, after
	// everything the body does to buf.
	if fn != nil && sendNames[fn.Name()] {
		env.defers = append(env.defers, call)
		return
	}

	// defer m.Release(): the canonical panic-safe discharge.
	if fn != nil && fn.Name() == "Release" {
		if robj := identObj(info, receiverExpr(call)); robj != nil {
			if r, ok := env.vars[robj]; ok && r.kind == resMsg {
				if r.deferred {
					w.reportf(call.Pos(), call.End(),
						"wire message %q released twice: a deferred Release is already pending", robj.Name())
				}
				r.deferred = true
				return
			}
		}
	}

	// defer func() { m.Release() }(): a closure releasing tracked
	// messages and touching nothing else counts the same; any other
	// captured resource escapes.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && len(call.Args) == 0 {
		released, others := closureReleases(info, lit, env)
		for _, obj := range released {
			env.vars[obj].deferred = true
		}
		for _, obj := range others {
			w.escapeObj(obj, env)
		}
		return
	}

	w.useExpr(call, env)
}

// closureReleases partitions the tracked resources a closure mentions:
// those used only as Release receivers, and everything else.
func closureReleases(info *types.Info, lit *ast.FuncLit, env *ownEnv) (released, others []types.Object) {
	uses := make(map[types.Object]int)
	releases := make(map[types.Object]int)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Release" {
				if obj := identObj(info, receiverExpr(call)); obj != nil {
					releases[obj]++
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				if _, tracked := env.vars[obj]; tracked {
					uses[obj]++
				}
			}
		}
		return true
	})
	for obj := range uses {
		if releases[obj] > 0 {
			released = append(released, obj)
		} else {
			others = append(others, obj)
		}
	}
	return released, others
}

// storeTo reports an indexed store (payload[i] = x, payload[a:b][i]++)
// into a payload Ctx.Send already queued.
func (w *ownWalker) storeTo(lhs ast.Expr, env *ownEnv) {
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		w.payloadWrite("store", ix.X, lhs, env)
	}
}

// payloadWrite reports a write (op: store, append, copy) into target
// when it names a payload Ctx.Send already queued: engines may deliver
// the sender's slice itself, so the write races with the receiver.
func (w *ownWalker) payloadWrite(op string, target ast.Expr, at ast.Node, env *ownEnv) {
	obj := payloadObj(w.pass.TypesInfo, target)
	if obj == nil {
		return
	}
	if r, ok := env.vars[obj]; ok && r.kind == resPayload {
		w.reportf(at.Pos(), at.End(),
			"%s into payload %q after Send queued it at line %d: engines may share the sender's bytes",
			op, obj.Name(), w.pass.Fset.Position(r.sentAt).Line)
	}
}

// payloadObj resolves expressions naming a []byte variable: the bare
// identifier or a slice of it (payload[a:b] still aliases payload).
func payloadObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	obj := identObj(info, e)
	if obj == nil {
		return nil
	}
	if sl, ok := obj.Type().Underlying().(*types.Slice); ok && isBasic(sl.Elem(), types.Uint8) {
		return obj
	}
	return nil
}

// exprMentions reports whether e references obj.
func exprMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && identObj(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
