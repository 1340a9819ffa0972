package analysis

import (
	"go/ast"
	"go/types"
)

// LogTaint keeps secrets out of what gets printed: a secret-carrying
// expression (secret.go) must not be an argument of a log or fmt.Print*
// call, nor of any function that ends in a printf-style
// (format string, args ...interface{}) tail — repository helpers of that
// shape (core's logf and refuse, cliutil.Fatalf) exist to reach a log line,
// a terminal or a peer. No verb excuses a secret: %x prints it too.
//
// The check is syntactic, one call at a time. What a line may say about a
// peer's own bytes — names, DNs, error texts — is not this pass's business:
// core.Audit escapes every audit line where it is written.
var LogTaint = &Pass{
	Name: "logtaint",
	Doc:  "secret values must not be arguments of log, print or printf-style calls",
	Run:  runLogTaint,
}

func runLogTaint(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sink, first := printSink(ctx, pkg, call)
			if sink == "" {
				return true
			}
			for _, arg := range call.Args[min(first, len(call.Args)):] {
				if desc, secret := ctx.secretCarrier(pkg, arg); secret {
					diags = append(diags, pkg.diag("logtaint", arg.Pos(),
						"secret value reaches %s: %s; redact it before logging", sink, desc))
				}
			}
			return true
		})
	}
	return diags
}

// printSink reports whether call prints its arguments — returning a display
// name and the index of the first argument that is printed — or "".
// fmt's Sprint*/Errorf/Append*/Fprint*-to-a-writer are absent on purpose:
// their results are values whose further travel secretescape follows.
func printSink(ctx *Context, pkg *Package, call *ast.CallExpr) (string, int) {
	fn := calleeFunc(pkg, call)
	if fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "log":
			return shortCallee(fn), 0 // every log function and Logger method taking arguments prints them
		case "fmt":
			switch fn.Name() {
			case "Print", "Printf", "Println":
				return shortCallee(fn), 0
			case "Fprint", "Fprintf", "Fprintln":
				if len(call.Args) > 0 && isStdStream(pkg, call.Args[0]) {
					return shortCallee(fn), 1
				}
			}
			return "", 0
		}
	}
	// The repository's own functions and methods, and func-typed values (a
	// logf field); the rest of the standard library (testing.T.Errorf) is
	// not where an operator reads.
	if _, declared := ctx.FuncDecls[funcKey(fn)]; fn != nil && !declared {
		return "", 0
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return "", 0
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	if format := printfShape(sig); format >= 0 {
		return types.ExprString(call.Fun), format
	}
	return "", 0
}

// isStdStream matches the os.Stdout / os.Stderr selector.
func isStdStream(pkg *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// printfShape returns the format parameter's index for a printf-shaped
// signature — penultimate string parameter, variadic ...interface{} tail —
// or -1.
func printfShape(sig *types.Signature) int {
	if sig == nil || !sig.Variadic() || sig.Params().Len() < 2 {
		return -1
	}
	n := sig.Params().Len()
	tail, _ := sig.Params().At(n - 1).Type().Underlying().(*types.Slice)
	if tail == nil || !isStringType(sig.Params().At(n-2).Type()) {
		return -1
	}
	if iface, ok := tail.Elem().Underlying().(*types.Interface); !ok || !iface.Empty() {
		return -1
	}
	return n - 2
}
