package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// NilGuard machine-checks the nil-is-disabled contract of the
// observability handles: a nil *trace.Tracer, *span.Recorder or *span.Req
// means "tracing off", and the instrumented layers call methods on those
// handles unguarded on every hot path. The contract has two halves:
//
// Home packages (internal/trace, internal/span): every exported method
// with a pointer receiver on a handle type must be nil-receiver safe — it
// either opens with an `if recv == nil` guard (possibly `recv == nil ||
// ...`, short-circuit makes the rest safe), or it never touches receiver
// state directly (only calls other, equally checked, methods). A new
// method that dereferences an unguarded receiver would crash every
// tracing-disabled run the moment a layer calls it.
//
// Consumer packages (everything else): handles are installed only through
// Set*/New* accessors — an unexported handle field assigned anywhere else
// (say, nilling a tracer mid-run) would silently change behaviour between
// two same-seed runs — and a handle is never dereferenced with *, because
// nil is a legal, common value. Disabled must also mean free: a method call
// on a trace, telemetry or timeline handle whose arguments call a function
// that reaches a loop (over the call graph) pays that walk even when the
// handle is nil, so such a call must sit inside an `if h != nil` guard.
var NilGuard = &Analyzer{
	Name: "nilguard",
	Doc:  "enforce the nil-is-disabled contract of trace.Tracer / span.Recorder handles, including that a disabled handle never pays for its arguments",
	Run:  runNilGuard,
}

// handleTypes maps home package path -> nil-is-disabled type names.
var handleTypes = map[string]map[string]bool{
	"tracklog/internal/trace":     {"Tracer": true},
	"tracklog/internal/span":      {"Recorder": true, "Req": true},
	"tracklog/internal/telemetry": {"Registry": true, "Counter": true, "Gauge": true, "Histogram": true},
	"tracklog/internal/timeline":  {"Aggregator": true, "Lane": true, "Meter": true, "Mark": true},
}

// installedHandles is the subset of handle types with instance lifetime:
// installed once at setup and expected to stay put for the whole run. The
// Set*/New*-only store rule applies to these. span.Req is deliberately
// excluded — it is a request-lifetime handle that layers legitimately stash
// on in-flight request state.
var installedHandles = map[string]bool{
	"trace.Tracer":        true,
	"span.Recorder":       true,
	"telemetry.Registry":  true,
	"telemetry.Counter":   true,
	"telemetry.Gauge":     true,
	"telemetry.Histogram": true,
	"timeline.Aggregator": true,
	"timeline.Lane":       true,
	"timeline.Meter":      true,
	"timeline.Mark":       true,
}

func runNilGuard(pass *Pass) error {
	if !strings.HasPrefix(pass.Path, "tracklog") {
		return nil
	}
	names, home := handleTypes[pass.Path]
	if home {
		checkHomeMethods(pass, names)
	}
	checkConsumers(pass)
	if !home {
		checkCostlyArgs(pass)
	}
	return nil
}

// costlyArgHomes are the handle packages whose method calls sit on hot
// paths with arguments evaluated eagerly (span handles take positions and
// IDs, never computed summaries).
var costlyArgHomes = map[string]bool{
	"tracklog/internal/trace":     true,
	"tracklog/internal/telemetry": true,
	"tracklog/internal/timeline":  true,
}

// checkCostlyArgs flags handle method calls whose arguments call a function
// that reaches a loop, unless an enclosing `if <handle> != nil` skips them
// while the handle is disabled. Function-literal arguments are callbacks,
// not evaluated at the call, and are not inspected.
func checkCostlyArgs(pass *Pass) {
	chains := pass.Prog.loopTaint()
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !isCostlyArgHandle(pass.typeOf(sel.X)) {
				return true
			}
			if s, ok := pass.Info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
				return true
			}
			inner, chain := costlyArgCall(pass, call.Args, chains)
			if inner == nil || enabledGuarded(pass, stack, sel.X, call.Pos()) {
				return true
			}
			handle := types.ExprString(sel.X)
			pass.Reportf(inner.Pos(),
				"argument of %s.%s calls %s, which reaches a loop (%s) that runs even while the %s handle is nil; wrap the call in `if %s != nil { ... }`",
				handle, sel.Sel.Name, types.ExprString(inner.Fun), renderChain(chain),
				handleTypeName(pass.typeOf(sel.X)), handle)
			return true
		})
	}
}

// isCostlyArgHandle reports whether t is a handle of a costlyArgHomes
// package.
func isCostlyArgHandle(t types.Type) bool {
	name := handleTypeName(t)
	if name == "" {
		return false
	}
	named := t.(*types.Pointer).Elem().(*types.Named)
	return costlyArgHomes[NormalizePath(named.Obj().Pkg().Path())]
}

// costlyArgCall returns the first call inside args (outside function
// literals) whose callee reaches a loop, with its witness chain.
func costlyArgCall(pass *Pass, args []ast.Expr, chains map[string][]string) (*ast.CallExpr, []string) {
	var found *ast.CallExpr
	var chain []string
	for _, arg := range args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if c := chains[FuncID(pass.calleeFunc(n))]; c != nil {
					found, chain = n, c
					return false
				}
			}
			return true
		})
		if found != nil {
			break
		}
	}
	return found, chain
}

// enabledGuarded reports whether pos is skipped while the handle is nil:
// it lies in the then-branch of an enclosing `if h != nil` (leftmost &&
// operand), or follows an `if h == nil { return }` (leftmost || operand) in
// an enclosing block, where h renders like the handle expression.
func enabledGuarded(pass *Pass, stack []ast.Node, handle ast.Expr, pos token.Pos) bool {
	want := types.ExprString(ast.Unparen(handle))
	isHandle := func(e ast.Expr) bool { return types.ExprString(ast.Unparen(e)) == want }
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.IfStmt:
			if pos >= n.Body.Pos() && pos <= n.Body.End() && leftmostNilTest(pass, n.Cond, token.NEQ, token.LAND, isHandle) {
				return true
			}
		case *ast.BlockStmt:
			for _, st := range n.List {
				if st.End() > pos {
					break
				}
				ifs, ok := st.(*ast.IfStmt)
				if ok && ifs.Init == nil && leftmostNilTest(pass, ifs.Cond, token.EQL, token.LOR, isHandle) && blockTerminates(ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}

// leftmostNilTest walks the leftmost spine of chainOp chains (&& or ||) in
// cond and reports whether it bottoms out at `x <op> nil` (either operand
// order) with match(x).
func leftmostNilTest(pass *Pass, cond ast.Expr, op, chainOp token.Token, match func(ast.Expr) bool) bool {
	for {
		be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if be.Op == chainOp {
			cond = be.X
			continue
		}
		if be.Op != op {
			return false
		}
		return (match(be.X) && isNilExpr(pass, be.Y)) || (match(be.Y) && isNilExpr(pass, be.X))
	}
}

// loopTaint seeds the caller-ward closure with every function whose own
// body contains a loop.
func (prog *Program) loopTaint() map[string][]string {
	if prog.loopChains == nil {
		seeds := make(map[string]string)
		for id, fi := range prog.Funcs {
			if fi.LoopPos.IsValid() {
				pos := fi.Pkg.Fset.Position(fi.LoopPos)
				seeds[id] = fmt.Sprintf("loop at %s:%d", filepath.Base(pos.Filename), pos.Line)
			}
		}
		prog.loopChains = prog.taintCallers(seeds)
	}
	return prog.loopChains
}

// checkHomeMethods verifies nil-receiver safety of exported handle methods.
func checkHomeMethods(pass *Pass, names map[string]bool) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			tname, recv := recvInfo(fd)
			if tname == "" || !names[tname] {
				continue
			}
			if recv == nil {
				continue // anonymous receiver: state is unreachable
			}
			if hasLeadingNilGuard(pass, fd.Body, recv) {
				continue
			}
			if pos, found := unguardedStateUse(pass, fd.Body, recv); found {
				use := pass.Fset.Position(pos)
				pass.Reportf(fd.Name.Pos(),
					"exported method (*%s).%s touches receiver state without a nil guard (first at line %d), breaking the nil-is-disabled contract; open with `if %s == nil { ... }`",
					tname, fd.Name.Name, use.Line, recv.Name)
			}
		}
	}
}

// recvInfo extracts the receiver base type name and the receiver variable
// (nil for `func (*T) M()`), for pointer receivers only.
func recvInfo(fd *ast.FuncDecl) (string, *ast.Ident) {
	if len(fd.Recv.List) != 1 {
		return "", nil
	}
	field := fd.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return "", nil // value receiver: a copy, nil cannot reach it
	}
	base, ok := star.X.(*ast.Ident)
	if !ok {
		return "", nil
	}
	var recv *ast.Ident
	if len(field.Names) == 1 && field.Names[0].Name != "_" {
		recv = field.Names[0]
	}
	return base.Name, recv
}

// hasLeadingNilGuard reports whether the first statement of body is
//
//	if recv == nil { return ... }   or   if recv == nil || ... { return ... }
//
// whose then-branch terminates (return or panic).
func hasLeadingNilGuard(pass *Pass, body *ast.BlockStmt, recv *ast.Ident) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	isRecv := func(e ast.Expr) bool { return isRecvIdent(pass, e, recv) }
	if !leftmostNilTest(pass, ifs.Cond, token.EQL, token.LOR, isRecv) {
		return false
	}
	return blockTerminates(ifs.Body)
}

func isRecvIdent(pass *Pass, e ast.Expr, recv *ast.Ident) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return pass.Info.Uses[id] != nil && pass.Info.Uses[id] == pass.Info.Defs[recv]
}

func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// unguardedStateUse finds the first direct use of receiver state — a field
// selection or a * dereference — that is not inside an `if recv != nil`
// region. Method calls on the receiver are fine: each callee is itself
// checked.
func unguardedStateUse(pass *Pass, body *ast.BlockStmt, recv *ast.Ident) (token.Pos, bool) {
	var found token.Pos
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if found.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !isRecvIdent(pass, n.X, recv) {
				return true
			}
			sel, ok := pass.Info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if !guardedByStack(pass, stack, recv) {
				found = n.Pos()
			}
		case *ast.StarExpr:
			if isRecvIdent(pass, n.X, recv) && !guardedByStack(pass, stack, recv) {
				found = n.Pos()
			}
		}
		return true
	})
	return found, found.IsValid()
}

// guardedByStack reports whether any enclosing if-statement on the inspect
// stack guards with `recv != nil` (leftmost && operand).
func guardedByStack(pass *Pass, stack []ast.Node, recv *ast.Ident) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if leftmostNilTest(pass, ifs.Cond, token.NEQ, token.LAND, func(e ast.Expr) bool { return isRecvIdent(pass, e, recv) }) {
			return true
		}
	}
	return false
}

// checkConsumers applies the consumer half of the contract in every module
// package: unexported handle fields are written only inside Set*/New*
// functions, and handle values are never dereferenced.
func checkConsumers(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkHandleFieldStore(pass, file, lhs)
				}
			case *ast.StarExpr:
				if isHandleType(pass.typeOf(n.X)) {
					pass.Reportf(n.Pos(),
						"dereferencing a %s handle defeats the nil-is-disabled contract (nil is a legal value); call its nil-safe methods instead",
						handleTypeName(pass.typeOf(n.X)))
				}
			}
			return true
		})
	}
}

func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isHandleType reports whether t is a pointer to one of the nil-is-disabled
// handle types.
func isHandleType(t types.Type) bool {
	return handleTypeName(t) != ""
}

func handleTypeName(t types.Type) string {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	home := NormalizePath(named.Obj().Pkg().Path())
	if names, ok := handleTypes[home]; ok && names[named.Obj().Name()] {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return ""
}

// checkHandleFieldStore flags `x.field = handle` when field is an
// unexported struct field of handle type and the enclosing function is not
// a Set*/New* accessor (or package-scope initialization).
func checkHandleFieldStore(pass *Pass, file *ast.File, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.IsExported() {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	if !installedHandles[handleTypeName(selection.Obj().Type())] {
		return
	}
	fn := enclosingFuncName(file, lhs.Pos())
	if fn == "" || strings.HasPrefix(fn, "Set") || strings.HasPrefix(fn, "New") ||
		strings.HasPrefix(fn, "set") || strings.HasPrefix(fn, "new") {
		return
	}
	pass.Reportf(lhs.Pos(),
		"handle field %s (%s) is assigned outside a Set*/New* accessor; swapping instrumentation mid-run breaks run-to-run determinism",
		sel.Sel.Name, handleTypeName(selection.Obj().Type()))
}
