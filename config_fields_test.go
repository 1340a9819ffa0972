package repro

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// configStructs are the structs a deployment configures the system through,
// by package import path.
var configStructs = map[string][]string{
	"repro/internal/core":       {"ServerConfig", "Client"},
	"repro/internal/cluster":    {"Config"},
	"repro/internal/gsi":        {"AcceptorConfig", "AuthOptions", "Dialer"},
	"repro/internal/portal":     {"Config"},
	"repro/internal/renewal":    {"Config"},
	"repro/internal/mss":        {"Config"},
	"repro/internal/gram":       {"Config", "RenewalOptions"},
	"repro/internal/proxy":      {"Options", "VerifyOptions"},
	"repro/internal/resilience": {"Policy"},
	"repro/internal/pki":        {"CAConfig"},
	"repro/internal/policy":     {"LifetimePolicy", "PassphrasePolicy"},
}

// unsetFields are the config fields that no binary or benchmark sets, each
// with the reason it stays. Every other field must have a setter outside
// test code.
var unsetFields = map[string]string{
	"core.ServerConfig.Now":               "clock seam: tests move the repository past lifetimes and expiry",
	"core.ServerConfig.PurgeInterval":     "the expiry sweeper; only tests start it until the server decides when to sweep",
	"core.ServerConfig.OTP":               "one-time passwords (E9); tests enroll users, and myproxy-server has no OTP flag yet",
	"core.ServerConfig.DelegationKeyBits": "tests mint 1024-bit deposit keys; the binaries size keys by -key-alg",
	"portal.Config.KeyBits":               "tests mint 1024-bit login keys; portal-server sizes keys by -key-alg",
	"renewal.Config.OnRenew":              "TestRunLoopRenews waits on each renewal instead of polling",
	"core.Client.ProxyType":               "emulates a legacy client that delegates a legacy proxy to the repository",
	"cluster.Config.Probation":            "clock seam: tests shorten or lengthen a failed node's probation",
	"cluster.Config.DialContext":          "fault seam: the test deployment partitions nodes through it",
	"gram.Config.Renewal":                 "long jobs renew their proxy from MyProxy (paper §6.6, E11)",
	"gram.RenewalOptions.RepoAddr":        "part of gram.Config.Renewal",
	"gram.RenewalOptions.ExpectedServer":  "part of gram.Config.Renewal",
	"gram.RenewalOptions.Threshold":       "part of gram.Config.Renewal",
	"gram.RenewalOptions.Lifetime":        "part of gram.Config.Renewal",
	"gram.RenewalOptions.Interval":        "part of gram.Config.Renewal",
	"gram.RenewalOptions.KeyBits":         "part of gram.Config.Renewal",
	"proxy.Options.RestrictedOps":         "restricted proxies limit what a delegation may do (E12)",
	"proxy.Options.KeySource":             "key seam: the test deployment draws proxy keys from its shared pool",
	"pki.CAConfig.Key":                    "fixture seam: test CAs sign with pre-generated keys",
	"resilience.Policy.Sleep":             "test seam: records backoffs instead of sleeping them",
	"resilience.Policy.Rand":              "test seam: pins the jitter so backoffs are exact",
}

// TestEveryConfigFieldHasAUser holds the config structs to the rule in
// DESIGN.md's "Configuration" paragraph: an exported field stays only if
// code outside tests sets it (a composite-literal key, an assignment, or its
// address handed to a flag), or it is on unsetFields with a reason. It also
// fails on a listed field that has gained a real setter, so the list stays
// exact.
func TestEveryConfigFieldHasAUser(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := loadedModule()
	if err != nil {
		t.Fatal(err)
	}
	fields := make(map[string]bool) // "pkg.Type.Field" of each exported field
	set := make(map[string]bool)
	for _, pkg := range pkgs {
		if names, ok := configStructs[pkg.path]; ok {
			for _, name := range names {
				obj := pkg.types.Scope().Lookup(name)
				if obj == nil {
					t.Fatalf("%s has no type %s", pkg.path, name)
				}
				st := obj.Type().Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[configKey(obj.Type(), f.Name())] = true
					}
				}
			}
		}
		if testCode(pkg.path) {
			continue
		}
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv, ok := pkg.info.Types[n]
					if !ok {
						return true
					}
					typ := tv.Type
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[configKey(typ, kv.Key.(*ast.Ident).Name)] = true
						} else {
							set[configKey(typ, st.Field(i).Name())] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(pkg, lhs, set)
					}
				case *ast.IncDecStmt:
					markSelector(pkg, n.X, set)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSelector(pkg, n.X, set)
					}
				}
				return true
			})
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no config struct fields")
	}

	keys := make([]string, 0, len(fields))
	for key := range fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	unset := 0
	for _, key := range keys {
		has := set[key]
		reason, listed := unsetFields[key]
		switch {
		case !has && !listed:
			t.Errorf("%s: no binary or benchmark sets it; delete it, make it a constant, or list it in unsetFields with a reason", key)
		case has && listed:
			t.Errorf("%s is listed in unsetFields (%q) but non-test code sets it; take it off the list", key, reason)
		}
		if !has {
			unset++
		}
	}
	for key := range unsetFields {
		if !fields[key] {
			t.Errorf("unsetFields lists %s, which is not a field of a config struct", key)
		}
	}
	t.Logf("%d exported config fields, %d without a non-test setter", len(fields), unset)
}

// markSelector records expr as set when it selects a field of a struct,
// attributing a promoted field to the struct that declares it.
func markSelector(pkg *modulePackage, expr ast.Expr, set map[string]bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := pkg.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	typ := s.Recv()
	index := s.Index()
	for _, i := range index[:len(index)-1] {
		typ = deref(typ).Underlying().(*types.Struct).Field(i).Type()
	}
	set[configKey(deref(typ), sel.Sel.Name)] = true
}

func deref(typ types.Type) types.Type {
	if p, ok := typ.(*types.Pointer); ok {
		return p.Elem()
	}
	return typ
}

// configKey names a field as "pkg.Type.Field", by the package's last path
// element, so a type seen through export data and one checked from source
// share a key.
func configKey(typ types.Type, field string) string {
	named, ok := typ.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return filepath.Base(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + field
}

// testCode reports whether a package is test support: the deployment
// builder and the fixture and fault packages only tests import.
func testCode(importPath string) bool {
	for _, dir := range []string{"internal/sim", "internal/testpki", "internal/faultnet"} {
		if strings.HasPrefix(importPath, "repro/"+dir) {
			return true
		}
	}
	return false
}
