// Package flow is a small abstract interpreter over Go's *structured*
// control flow, under the flow-aware pbiovet analyzer (lockcheck).  It
// walks one function body in execution order, maintains a
// client-defined abstract state, clones it at branches, and merges it
// at joins — so a client can answer path questions ("is this mutex
// still held here?") without building a full CFG.
//
// The client supplies the lattice: a State with Clone, a Merge hook
// that joins two states (called at if/else joins, loop exits, switch
// and select exits), and per-node transfer hooks.  The engine owns
// sequencing, branching, bounded loop iteration (bodies are interpreted
// a fixed number of times, enough for the monotone lattices the
// analyzers use), break/continue routing, and dead-path pruning after
// return/panic.
//
// Contract for the hooks:
//
//   - Stmt fires for every statement, with the state on entry, before
//     the engine interprets the statement's structure.  For simple
//     statements (assignments, calls, sends, go/defer, return) the
//     client applies its whole transfer function here, walking the
//     statement's expressions itself.  For control statements (if,
//     for, switch, select, range, block) the client must look only at
//     the node shallowly — e.g. "a select with no default blocks" —
//     because the engine will interpret the children itself.
//   - Expr fires for expressions in control position: if/for
//     conditions, switch tags, range and type-switch operands, and
//     case expressions.
//
// Functions containing goto or labeled statements are not interpreted
// (they are absent from this codebase).
package flow

import (
	"go/ast"
	"go/types"
)

// State is one path's abstract state.  Clone must return an independent
// deep copy.
type State interface {
	Clone() State
}

// Hooks are the client's transfer functions.
type Hooks struct {
	Stmt  func(ast.Stmt, State)
	Expr  func(ast.Expr, State)
	Merge func(dst, src State) // join src into dst

	// Info, when set, lets the engine recognize calls to the builtin
	// panic as path terminators.
	Info *types.Info
}

// loopIterations bounds how many times a loop body is re-interpreted;
// two passes reach fixpoint for the monotone lattices the analyzers
// use (a third is interpreted for safety margin).
const loopIterations = 3

// Func interprets body starting from st, or nothing at all when the
// body contains goto or labeled statements.
func Func(body *ast.BlockStmt, st State, h Hooks) {
	if analyzable(body) {
		it := &interp{h: h}
		it.block(body.List, st)
	}
}

// analyzable rejects bodies with unstructured control flow.
func analyzable(body *ast.BlockStmt) bool {
	ok := true
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested functions are separate flows
		case *ast.LabeledStmt:
			ok = false
		case *ast.BranchStmt:
			if n.Label != nil {
				ok = false
			}
		}
		return ok
	})
	return ok
}

type interp struct {
	h Hooks
	// breaks and continues are collector stacks: the innermost loop
	// (or switch/select, for breaks) gathers the states of paths that
	// jump to its end.
	breaks    []*[]State
	continues []*[]State
}

// merge joins b into a, treating nil as the dead path.
func (it *interp) merge(a, b State) State {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	it.h.Merge(a, b)
	return a
}

// block interprets a statement list; nil means every path out of the
// list terminated (return, panic, break out of it).
func (it *interp) block(list []ast.Stmt, st State) State {
	for _, s := range list {
		if st == nil {
			return nil // unreachable tail
		}
		st = it.stmt(s, st)
	}
	return st
}

func (it *interp) stmt(s ast.Stmt, st State) State {
	if st == nil {
		return nil
	}
	if it.h.Stmt != nil {
		it.h.Stmt(s, st)
	}
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return nil
	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			if n := len(it.breaks); n > 0 {
				*it.breaks[n-1] = append(*it.breaks[n-1], st)
			}
			return nil
		case "continue":
			if n := len(it.continues); n > 0 {
				*it.continues[n-1] = append(*it.continues[n-1], st)
			}
			return nil
		}
		return st // goto is rejected upfront; fallthrough handled by switch
	case *ast.ExprStmt:
		if it.isPanic(s.X) {
			return nil
		}
		return st
	case *ast.BlockStmt:
		return it.block(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = it.stmt(s.Init, st)
		}
		it.expr(s.Cond, st)
		thenSt := st.Clone()
		outThen := it.block(s.Body.List, thenSt)
		outElse := st
		if s.Else != nil {
			outElse = it.stmt(s.Else, st)
		}
		return it.merge(outThen, outElse)
	case *ast.ForStmt:
		if s.Init != nil {
			st = it.stmt(s.Init, st)
		}
		var breaks, conts []State
		it.breaks = append(it.breaks, &breaks)
		it.continues = append(it.continues, &conts)
		for i := 0; i < loopIterations; i++ {
			if s.Cond != nil {
				it.expr(s.Cond, st)
			}
			out := it.block(s.Body.List, st.Clone())
			for _, c := range conts {
				out = it.merge(out, c)
			}
			conts = conts[:0]
			if out != nil && s.Post != nil {
				out = it.stmt(s.Post, out)
			}
			st = it.merge(st, out)
		}
		it.breaks = it.breaks[:len(it.breaks)-1]
		it.continues = it.continues[:len(it.continues)-1]
		if s.Cond == nil {
			// for {}: the only exits are breaks.
			var exit State
			for _, b := range breaks {
				exit = it.merge(exit, b)
			}
			return exit
		}
		for _, b := range breaks {
			st = it.merge(st, b)
		}
		return st
	case *ast.RangeStmt:
		it.expr(s.X, st)
		var breaks, conts []State
		it.breaks = append(it.breaks, &breaks)
		it.continues = append(it.continues, &conts)
		for i := 0; i < loopIterations; i++ {
			out := it.block(s.Body.List, st.Clone())
			for _, c := range conts {
				out = it.merge(out, c)
			}
			conts = conts[:0]
			st = it.merge(st, out)
		}
		it.breaks = it.breaks[:len(it.breaks)-1]
		it.continues = it.continues[:len(it.continues)-1]
		for _, b := range breaks {
			st = it.merge(st, b)
		}
		return st
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = it.stmt(s.Init, st)
		}
		if s.Tag != nil {
			it.expr(s.Tag, st)
		}
		return it.cases(s.Body.List, st, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = it.stmt(s.Init, st)
		}
		return it.cases(s.Body.List, st, false)
	case *ast.SelectStmt:
		var breaks []State
		it.breaks = append(it.breaks, &breaks)
		var exit State
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cst := st.Clone()
			if cc.Comm != nil {
				cst = it.stmt(cc.Comm, cst)
			}
			exit = it.merge(exit, it.block(cc.Body, cst))
		}
		it.breaks = it.breaks[:len(it.breaks)-1]
		for _, b := range breaks {
			exit = it.merge(exit, b)
		}
		if len(s.Body.List) == 0 {
			return nil // select{} blocks forever
		}
		return exit
	case *ast.LabeledStmt:
		return it.stmt(s.Stmt, st) // unreachable: rejected upfront
	default:
		// Assign, Decl, Send, IncDec, Go, Defer, Empty: the Stmt hook
		// has already applied the client's transfer function.
		return st
	}
}

// cases interprets switch case clauses, threading fallthrough states
// into the next clause.  withExprs selects whether case expressions are
// fed to the Expr hook (value switches, not type switches).
func (it *interp) cases(clauses []ast.Stmt, st State, withExprs bool) State {
	var breaks []State
	it.breaks = append(it.breaks, &breaks)
	var exit State
	var fallth State
	hasDefault := false
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if withExprs {
			for _, e := range cc.List {
				it.expr(e, st)
			}
		}
		cst := st.Clone()
		cst = it.merge(cst, fallth)
		fallth = nil
		out := it.block(cc.Body, cst)
		if out != nil && endsInFallthrough(cc.Body) {
			fallth = out
			continue
		}
		exit = it.merge(exit, out)
	}
	it.breaks = it.breaks[:len(it.breaks)-1]
	for _, b := range breaks {
		exit = it.merge(exit, b)
	}
	if !hasDefault {
		// No default: the switch may match nothing.
		exit = it.merge(exit, st)
	}
	if exit == nil && len(clauses) == 0 {
		return st
	}
	return exit
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	b, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && b.Tok.String() == "fallthrough"
}

func (it *interp) expr(e ast.Expr, st State) {
	if e != nil && it.h.Expr != nil {
		it.h.Expr(e, st)
	}
}

// isPanic recognizes a call to the builtin panic.
func (it *interp) isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" || it.h.Info == nil {
		return false
	}
	_, isBuiltin := it.h.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
