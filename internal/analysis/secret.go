package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
)

// Secret labelling. The consttime, zeroize, secretescape and logtaint
// passes need to know which values are secret-bearing. The convention (documented in DESIGN.md) has
// three layers:
//
//  1. Built-in types: rsa.PrivateKey (and pointers to it) is always secret.
//  2. Marked types: a named type whose declaration doc comment carries a
//     standalone //myproxy:secret line is secret everywhere it appears,
//     across packages (matched by fully-qualified name, so export-data
//     imports are covered too).
//  3. Named values: an identifier, parameter or field whose name matches
//     the secret-name convention (passphrase / password / passwd / pass /
//     secret / privatekey, case-insensitive) AND whose type is string,
//     []byte, a byte array, or a marked type. The type restriction keeps
//     configuration structs like policy.PassphrasePolicy out of scope.
//
// An expression is secret if it is such a value, or syntactically contains
// one (so string(pass), strings.ToLower(passphrase) and req.Passphrase all
// count), with one exemption: len(...) of a secret is a plain integer and
// never secret.

// secretNameRE matches identifiers that carry secret material by
// convention. "pw" is matched only as the whole name; the longer words
// match as substrings (OTPSecret, userPassword, sealedSecretKey...).
// Deliberately not matched: "pass" alone (too generic — this repo also has
// analyzer passes); name your pass phrases "passphrase".
var (
	secretWordRE  = regexp.MustCompile(`(?i)(passphrase|password|passwd|secret|private_?key)`)
	secretExactRE = regexp.MustCompile(`(?i)^(pw)$`)
)

func secretName(name string) bool {
	return secretWordRE.MatchString(name) || secretExactRE.MatchString(name)
}

// collectSecretTypes scans the loaded packages for //myproxy:secret-marked
// type declarations and returns their fully-qualified names.
func collectSecretTypes(pkgs []*Package) map[string]string {
	marked := make(map[string]string)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if typeDocHasMarker(gd.Doc, ts.Doc, ts.Comment) {
						obj, ok := pkg.Info.Defs[ts.Name]
						if !ok || obj.Pkg() == nil {
							continue
						}
						marked[obj.Pkg().Path()+"."+obj.Name()] = "marked //myproxy:secret"
					}
				}
			}
		}
	}
	return marked
}

// isSecretType reports whether t itself is secret: rsa.PrivateKey or a
// //myproxy:secret-marked named type (pointers are dereferenced).
func (ctx *Context) isSecretType(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ctx.isSecretType(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	qual := obj.Pkg().Path() + "." + obj.Name()
	if qual == "crypto/rsa.PrivateKey" {
		return "rsa.PrivateKey", true
	}
	if _, ok := ctx.SecretTypes[qual]; ok {
		return qual, true
	}
	return "", false
}

// secretValueType reports whether t is a plausible carrier for by-name
// labelling: string, []byte, [N]byte, or a secret type.
func (ctx *Context) secretValueType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := ctx.isSecretType(t); ok {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return isByte(u.Elem())
	case *types.Array:
		return isByte(u.Elem())
	case *types.Pointer:
		return ctx.secretValueType(u.Elem())
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// carriesSecretContent reports whether an expression of type t actually
// holds secret bytes that a sink or comparison could leak: secret-marked
// types, rsa.PrivateKey, strings, byte slices and byte arrays. Values
// *derived* from secrets but of other types — pub.N.Cmp(key.N), a
// BitLen(), a bool — carry no recoverable content and are exempt.
func (ctx *Context) carriesSecretContent(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := ctx.isSecretType(t); ok {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return isByte(u.Elem())
	case *types.Array:
		return isByte(u.Elem())
	}
	return false
}

// secretCarrier combines both checks: e contains (or is) a secret value
// AND e's own static type can carry the secret's content onward.
func (ctx *Context) secretCarrier(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[ast.Unparen(e)]
	if !ok || !ctx.carriesSecretContent(tv.Type) {
		return "", false
	}
	return ctx.secretExpr(pkg, e)
}

// secretExpr reports whether e is (or contains) a secret-labelled value,
// with a description of what makes it secret.
func (ctx *Context) secretExpr(pkg *Package, e ast.Expr) (string, bool) {
	var desc string
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			// len(secret) is a plain integer; don't descend.
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "len" {
				if obj, ok := pkg.Info.Uses[id]; ok {
					if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
						return false
					}
				}
			}
		case *ast.Ident:
			if d, ok := ctx.secretIdent(pkg, x, x.Name); ok {
				desc, found = d, true
				return false
			}
		case *ast.SelectorExpr:
			if d, ok := ctx.secretIdent(pkg, x.Sel, x.Sel.Name); ok {
				desc, found = d, true
				return false
			}
		}
		return true
	})
	if found {
		return desc, true
	}
	// Finally, the expression's own static type may be secret (e.g. a call
	// returning a marked type).
	if tv, ok := pkg.Info.Types[e]; ok {
		if qual, ok := ctx.isSecretType(tv.Type); ok {
			return fmt.Sprintf("value of secret type %s", qual), true
		}
	}
	return "", false
}

// secretIdent labels one identifier occurrence: by its type, or by its
// name when the type is a plausible secret carrier.
func (ctx *Context) secretIdent(pkg *Package, id *ast.Ident, name string) (string, bool) {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if obj == nil {
		return "", false
	}
	if _, isPkg := obj.(*types.PkgName); isPkg {
		return "", false
	}
	// Compile-time constants are part of the binary, not runtime secrets
	// (markers, directive strings, test vectors).
	if _, isConst := obj.(*types.Const); isConst {
		return "", false
	}
	if qual, ok := ctx.isSecretType(obj.Type()); ok {
		return fmt.Sprintf("%q has secret type %s", name, qual), true
	}
	if secretName(name) && ctx.secretValueType(obj.Type()) {
		return fmt.Sprintf("%q is secret-labelled by name", name), true
	}
	return "", false
}
