package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NilGuard enforces the zero-cost-when-disabled contract of the two
// optional instruments: every Emit on a telemetry.Sink or a
// *trace.Tracer inside internal/ must sit behind the nil guard —
// either directly inside `if s != nil { ... }` or after an early
// `if s == nil { return }` in the same function. Without the guard, a
// disabled run still pays for event or record construction (and
// typically a wall-clock read) on the hot scoring and campaign paths,
// which breaks the zero-allocation discipline the goldens rely on.
// cmd/ is exempt: the CLI always wires a concrete sink. Each
// instrument's own package is exempt for that instrument: telemetry's
// Multi fan-out and Recorder, and the Tracer's methods, implement the
// contract rather than use it.
var NilGuard = &Analyzer{
	Name: "nilguard",
	Doc: "telemetry.Sink and trace.Tracer emissions must be behind a nil " +
		"guard (zero-cost-when-disabled)",
	Applies: func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, "diversify/internal/")
	},
	Run: runNilGuard,
}

// guardedEmitter is one instrument whose Emit calls need a nil guard.
type guardedEmitter struct {
	pkg, typ string // the emitter's named type (a pointer to it matches too)
	noun     string // "sink" / "tracer" in messages
	payoff   string // who pays nothing once the guard is in place
}

var guardedEmitters = []guardedEmitter{
	{"diversify/internal/telemetry", "Sink", "sink", "disabled runs pay nothing"},
	{"diversify/internal/trace", "Tracer", "tracer", "untraced replications pay nothing"},
}

func runNilGuard(pass *Pass) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Emit" {
				return true
			}
			tv, ok := pass.Info.Types[sel.X]
			if !ok {
				return true
			}
			for _, g := range guardedEmitters {
				if pass.Path == g.pkg || !namedFrom(tv.Type, g.pkg, g.typ) {
					continue
				}
				root, path, ok := refPath(pass.Info, sel.X)
				if !ok {
					pass.Reportf(call.Pos(), "cannot verify nil-%s guard for dynamic %s expression %s.Emit: bind the %s to a variable and guard it", g.noun, g.noun, types.ExprString(sel.X), g.noun)
				} else if !guardedBy(pass, stack, call, root, path) {
					pass.Reportf(call.Pos(), "%s.Emit is not behind a nil-%s guard: wrap it in `if %s != nil { ... }` so %s", path, g.noun, path, g.payoff)
				}
			}
			return true
		})
	}
}

// guardedBy reports whether the Emit call at the top of stack is
// covered by a nil guard on (root, path): an ancestor `if s != nil`
// with the call in its body (or `if s == nil` with the call in its
// else), or an earlier `if s == nil { return }` in the innermost
// enclosing function.
func guardedBy(pass *Pass, stack []ast.Node, call *ast.CallExpr, root types.Object, path string) bool {
	var fnBodies []*ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			inBody := within(call.Pos(), n.Body)
			inElse := n.Else != nil && within(call.Pos(), n.Else)
			if inBody && condChecksNil(pass, n.Cond, token.NEQ, root, path) {
				return true
			}
			if inElse && condChecksNil(pass, n.Cond, token.EQL, root, path) {
				return true
			}
		case *ast.FuncDecl:
			fnBodies = append(fnBodies, n.Body)
		case *ast.FuncLit:
			fnBodies = append(fnBodies, n.Body)
		}
	}
	// Early-return form: `if s == nil { ...; return }` strictly before
	// the call, in any enclosing function (a guard before a closure is
	// defined covers emissions inside the closure: the sink reference
	// cannot become nil afterwards in this codebase's wiring).
	guarded := false
	for _, fnBody := range fnBodies {
		ast.Inspect(fnBody, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok || guarded || ifs.Pos() >= call.Pos() {
				return !guarded
			}
			if !condChecksNil(pass, ifs.Cond, token.EQL, root, path) {
				return true
			}
			if body := ifs.Body.List; len(body) > 0 {
				if _, ok := body[len(body)-1].(*ast.ReturnStmt); ok {
					guarded = true
				}
			}
			return !guarded
		})
		if guarded {
			break
		}
	}
	return guarded
}

// condChecksNil reports whether cond contains (possibly inside an &&/||
// chain) a comparison of the (root, path) reference against nil with
// the given operator.
func condChecksNil(pass *Pass, cond ast.Expr, op token.Token, root types.Object, path string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || found || bin.Op != op {
			return !found
		}
		x, y := bin.X, bin.Y
		if isNilIdent(pass.Info, x) {
			x, y = y, x
		}
		if isNilIdent(pass.Info, y) && sameRef(pass.Info, x, root, path) {
			found = true
		}
		return !found
	})
	return found
}

// within reports whether pos falls inside node's span.
func within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos < node.End()
}
