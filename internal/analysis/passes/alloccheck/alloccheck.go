// Package alloccheck defines an analyzer that enforces per-function
// allocation budgets declared with //pbio:hotpath annotations.
//
// The module's hot paths carry measured allocation pins (see
// pbio/alloc_test.go: steady-state writes are 0 allocs/op).  Those pins
// catch regressions only when the benchmark runs; this analyzer catches
// them at vet time, by scanning functions annotated
//
//	//pbio:hotpath noalloc=N
//
// (in the function's doc comment; N is the allocation budget, usually
// 0) for constructs that allocate on every execution:
//
//   - fmt.* and errors.New calls;
//   - string concatenation with non-constant operands, and
//     string<->[]byte/[]rune conversions;
//   - closures that capture variables;
//   - interface boxing of non-pointer values at call arguments;
//   - append to a slice declared empty in the same function;
//   - make, new, &T{...}, and map, chan and slice literals;
//   - a local array sliced into a call that also takes an interface
//     value (io.ReadFull(r, hdr[:]): the array moves to the heap).
//
// Error paths are expected to allocate: any block ending by returning a
// non-nil error (or panicking) is cold and exempt.  A site that is
// deliberate — a one-time warm-up, an amortized growth — is suppressed
// with
//
//	//pbio:alloc-ok <reason>
//
// on, or alone on the line above, the allocation.  The reason is
// mandatory: a bare //pbio:alloc-ok is itself a diagnostic.  Suppressed
// sites do not count against the budget; when more than N countable
// sites remain, every one of them is reported.
package alloccheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/inspect"
)

// Analyzer enforces //pbio:hotpath noalloc=N allocation budgets.
var Analyzer = &analysis.Analyzer{
	Name: "alloccheck",
	Doc: `enforce //pbio:hotpath noalloc=N allocation budgets

Functions annotated //pbio:hotpath noalloc=N are scanned for
per-execution allocation constructs (fmt calls, string building,
capturing closures, interface boxing, growing appends, make/new).
Blocks that end by returning a non-nil error are cold and exempt.
Deliberate allocations are suppressed with //pbio:alloc-ok <reason>;
the reason is required.`,
	IncludeTests: true,
	Requires:     []*analysis.Analyzer{inspect.Analyzer},
	Run:          run,
}

var hotpathRe = regexp.MustCompile(`^//pbio:hotpath(?:\s+(.*))?$`)

func run(pass *analysis.Pass) (any, error) {
	allocOK := collectAllocOK(pass)
	in := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	in.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		budget, ok := hotpathBudget(pass, decl)
		if !ok || decl.Body == nil {
			return
		}
		checkBody(pass, decl, budget, allocOK)
	})
	return nil, nil
}

// hotpathBudget parses the //pbio:hotpath annotation in decl's doc
// comment, reporting malformed ones.
func hotpathBudget(pass *analysis.Pass, decl *ast.FuncDecl) (int, bool) {
	if decl.Doc == nil {
		return 0, false
	}
	for _, c := range decl.Doc.List {
		m := hotpathRe.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		args := strings.Fields(m[1])
		if len(args) == 0 || !strings.HasPrefix(args[0], "noalloc=") {
			pass.Reportf(decl.Name.Pos(), "malformed //pbio:hotpath annotation: want `//pbio:hotpath noalloc=N [rationale]`")
			return 0, false
		}
		n, err := strconv.Atoi(strings.TrimPrefix(args[0], "noalloc="))
		if err != nil || n < 0 {
			pass.Reportf(decl.Name.Pos(), "malformed //pbio:hotpath annotation: noalloc wants a non-negative integer, got %q",
				strings.TrimPrefix(args[0], "noalloc="))
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// site is one allocation found in a hot function.
type site struct {
	pos  token.Pos
	what string
}

func checkBody(pass *analysis.Pass, decl *ast.FuncDecl, budget int, allocOK allocOKSet) {
	w := &walker{
		pass:    pass,
		allocOK: allocOK,
		// Slices declared with no capacity in this function: appending
		// to them must grow.
		emptyLocals: findEmptyLocalSlices(pass, decl.Body),
	}
	w.block(decl.Body)
	counted := 0
	for _, s := range w.sites {
		if ok, hasReason := w.allocOK.at(pass.Fset.Position(s.pos)); ok {
			if !hasReason {
				pass.Reportf(s.pos, "//pbio:alloc-ok requires a reason: say why this allocation is acceptable on the hot path")
			}
			continue
		}
		counted++
	}
	if counted <= budget {
		return
	}
	plural := "sites"
	if counted == 1 {
		plural = "site"
	}
	for _, s := range w.sites {
		if ok, _ := w.allocOK.at(pass.Fset.Position(s.pos)); ok {
			continue
		}
		pass.Reportf(s.pos,
			"%s in //pbio:hotpath noalloc=%d function %s (%d allocation %s found); fix it, or mark a deliberate one with //pbio:alloc-ok <reason>",
			s.what, budget, decl.Name.Name, counted, plural)
	}
}

type walker struct {
	pass        *analysis.Pass
	allocOK     allocOKSet
	emptyLocals map[types.Object]bool
	sites       []site
}

// block scans a statement list, skipping cold blocks.
func (w *walker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		if !coldBlock(w.pass, s.Body) {
			w.block(s.Body)
		}
		if s.Else != nil {
			if eb, ok := s.Else.(*ast.BlockStmt); ok && coldBlock(w.pass, eb) {
				return
			}
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.block(s.Body)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.block(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Tag)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				w.caseClause(cc)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				w.caseClause(cc)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				for _, bs := range cc.Body {
					w.stmt(bs)
				}
			}
		}
	case *ast.ReturnStmt:
		// A return of a non-nil error is itself cold-path: its operand
		// expressions (fmt.Errorf and friends) are exempt.
		if isErrorReturn(w.pass, s) {
			return
		}
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for i, r := range s.Rhs {
			w.expr(r)
			if i < len(s.Lhs) {
				w.checkAppendGrowth(s.Lhs[i], r)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.GoStmt:
		// Spawning a goroutine on a noalloc path is an allocation (the
		// g stack) and a scheduling hazard; flag the closure rules via
		// expr on the call.
		w.add(s.Pos(), "goroutine start (allocates)")
		w.expr(s.Call)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *walker) caseClause(cc *ast.CaseClause) {
	for _, e := range cc.List {
		w.expr(e)
	}
	if coldStmts(w.pass, cc.Body) {
		return
	}
	for _, s := range cc.Body {
		w.stmt(s)
	}
}

// expr records allocation constructs in an expression tree.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capturesVariables(w.pass, n) {
				w.add(n.Pos(), "closure capturing variables (allocates per call)")
			}
			return false // the lit body is its own (possibly hot) scope
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(w.pass, n) {
				w.add(n.Pos(), "string concatenation (allocates)")
				// one report per concat chain
				return false
			}
		case *ast.CallExpr:
			w.call(n)
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
				w.add(n.Pos(), "address of composite literal (allocates when it escapes)")
			}
		case *ast.CompositeLit:
			if tv, ok := w.pass.TypesInfo.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					w.add(n.Pos(), "map literal (allocates)")
				case *types.Slice:
					if len(n.Elts) > 0 {
						w.add(n.Pos(), "slice literal (allocates its backing array when it escapes)")
					}
				}
			}
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr) {
	// Builtins and conversions.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if _, isBuiltin := w.pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				w.add(call.Pos(), "make (allocates)")
				return
			}
		case "new":
			if _, isBuiltin := w.pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				w.add(call.Pos(), "new (allocates)")
				return
			}
		}
	}
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringBytesConv(w.pass, tv.Type, call.Args[0]) {
			w.add(call.Pos(), "string/[]byte conversion (copies and allocates)")
		}
		return
	}
	if fn := calleeFunc(w.pass, call); fn != nil && fn.Pkg() != nil {
		switch trimVariant(fn.Pkg().Path()) {
		case "fmt":
			w.add(call.Pos(), "fmt."+fn.Name()+" call (allocates)")
			return
		case "errors":
			if fn.Name() == "New" {
				w.add(call.Pos(), "errors.New call (allocates)")
				return
			}
		}
	}
	w.checkBoxing(call)
	w.checkLocalArrayEscape(call)
}

// checkLocalArrayEscape flags a local array sliced into a call that also
// takes an interface value: the callee may hand the slice to a dynamic
// method (io.ReadFull passes it to r.Read), so the array moves to the heap.
func (w *walker) checkLocalArrayEscape(call *ast.CallExpr) {
	dynamic := false
	var arrays []ast.Expr
	for _, arg := range call.Args {
		if t := w.pass.TypesInfo.Types[arg].Type; t != nil && types.IsInterface(t) {
			dynamic = true
		}
		se, _ := ast.Unparen(arg).(*ast.SliceExpr)
		if se == nil {
			continue
		}
		id, _ := ast.Unparen(se.X).(*ast.Ident)
		v, _ := w.pass.TypesInfo.Uses[id].(*types.Var)
		if v == nil || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			continue
		}
		if _, ok := v.Type().Underlying().(*types.Array); ok {
			arrays = append(arrays, arg)
		}
	}
	if !dynamic {
		return
	}
	for _, arg := range arrays {
		w.add(arg.Pos(), "local array sliced into a call with an interface argument (escapes to the heap)")
	}
}

// checkBoxing flags non-pointer concrete values passed to interface
// parameters: the conversion heap-allocates the value's box.
func (w *walker) checkBoxing(call *ast.CallExpr) {
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := w.pass.TypesInfo.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: fits the interface word, no box
		}
		if tv, ok := w.pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
			continue // constants box to interned values or are cold anyway
		}
		w.add(arg.Pos(), "interface boxing of non-pointer value (allocates)")
	}
}

// checkAppendGrowth flags `x = append(x, ...)` where x is a slice that
// was declared empty in this function — such an append must grow.
func (w *walker) checkAppendGrowth(lhs, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := w.pass.TypesInfo.Uses[base]
	if obj != nil && w.emptyLocals[obj] {
		w.add(call.Pos(), "append to a slice declared without capacity (grows and allocates)")
	}
}

func (w *walker) add(pos token.Pos, what string) {
	w.sites = append(w.sites, site{pos: pos, what: what})
}

// ---- cold-path detection ----

// coldBlock reports whether b ends on an error return or panic: the
// canonical error-handling block, exempt from budgets.
func coldBlock(pass *analysis.Pass, b *ast.BlockStmt) bool {
	return coldStmts(pass, b.List)
}

func coldStmts(pass *analysis.Pass, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return isErrorReturn(pass, last)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
				return isBuiltin
			}
		}
	}
	return false
}

// isErrorReturn reports whether ret returns a definitely-non-nil error:
// some result has error type and is not the nil literal.
func isErrorReturn(pass *analysis.Pass, ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		tv, ok := pass.TypesInfo.Types[r]
		if !ok || tv.Type == nil {
			continue
		}
		if !isErrorType(tv.Type) {
			continue
		}
		if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		return true
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return true
	}
	intf, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < intf.NumMethods(); i++ {
		if intf.Method(i).Name() == "Error" {
			return true
		}
	}
	return false
}

// ---- helpers ----

// findEmptyLocalSlices returns objects of slices declared with no
// backing capacity: `var s []T` or `s := []T{}` / `s := []T(nil)`.
func findEmptyLocalSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(name *ast.Ident) {
		if obj := pass.TypesInfo.Defs[name]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				lit, ok := ast.Unparen(n.Rhs[i]).(*ast.CompositeLit)
				if !ok || len(lit.Elts) != 0 {
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// capturesVariables reports whether lit references variables declared
// outside it (other than package-level ones): those force a heap-
// allocated closure.
func capturesVariables(pass *analysis.Pass, lit *ast.FuncLit) bool {
	inside := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				inside[obj] = true
			}
		}
		return true
	})
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || inside[obj] {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture needed
		}
		captures = true
		return false
	})
	return captures
}

// isNonConstString reports whether e is a string-typed + with a
// non-constant result.
func isNonConstString(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringBytesConv reports whether a conversion to dst from arg moves
// between string and []byte/[]rune with a copy.
func isStringBytesConv(pass *analysis.Pass, dst types.Type, arg ast.Expr) bool {
	src := pass.TypesInfo.Types[arg].Type
	if src == nil {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		return false // constant conversion, folded at compile time
	}
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func trimVariant(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}

// ---- //pbio:alloc-ok collection ----

// allocOKSet records alloc-ok comments: file -> line -> has-reason.
// A comment suppresses sites on its own line, and on the following line
// when it stands alone.
type allocOKSet map[string]map[int]bool

func collectAllocOK(pass *analysis.Pass) allocOKSet {
	set := make(allocOKSet)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//pbio:alloc-ok")
				if !ok {
					continue
				}
				hasReason := strings.TrimSpace(rest) != ""
				pos := pass.Fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]bool)
					set[pos.Filename] = byLine
				}
				byLine[pos.Line] = hasReason
				if pos.Column == 1 || standaloneComment(pass.Fset, f, c) {
					byLine[pos.Line+1] = hasReason
				}
			}
		}
	}
	return set
}

// at reports whether an alloc-ok comment covers pos, and whether it
// carried a reason.
func (s allocOKSet) at(pos token.Position) (covered, hasReason bool) {
	byLine, ok := s[pos.Filename]
	if !ok {
		return false, false
	}
	hasReason, covered = byLine[pos.Line]
	return covered, hasReason
}

// standaloneComment reports whether c begins its line.
func standaloneComment(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Filename == pos.Filename && p.Line == pos.Line && p.Column < pos.Column {
			switch n.(type) {
			case *ast.File, *ast.Comment, *ast.CommentGroup:
			default:
				found = true
			}
		}
		return !found
	})
	return !found
}
