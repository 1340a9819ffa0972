package httpgate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
)

// designStatus matches a row of DESIGN.md §17's verdict table: the class in
// the first column, the HTTP status opening the last.
var designStatus = regexp.MustCompile("(?m)^\\| `(Verdict\\w+)` \\|.*\\| (\\d{3})[^|]*\\|$")

// Every VerdictKind the core package declares maps to the HTTP status DESIGN
// §17 gives it; only VerdictInternal is a 500. The kinds are read from the
// declaration itself, so a new kind fails here until the gateway and the
// table both know it.
func TestRefuseMapsEveryVerdictKind(t *testing.T) {
	want := make(map[string]int)
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range designStatus.FindAllStringSubmatch(string(design), -1) {
		want[m[1]], _ = strconv.Atoi(m[2])
	}

	file, err := parser.ParseFile(token.NewFileSet(), "../core/service.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		first := gd.Specs[0].(*ast.ValueSpec)
		if types.ExprString(first.Type) != "VerdictKind" {
			continue
		}
		if len(first.Values) != 1 || types.ExprString(first.Values[0]) != "iota + 1" {
			t.Fatalf("the VerdictKind block no longer counts from iota + 1")
		}
		for _, spec := range gd.Specs {
			kinds = append(kinds, spec.(*ast.ValueSpec).Names[0].Name)
		}
	}
	if len(kinds) == 0 {
		t.Fatal("no VerdictKind const block in core/service.go")
	}

	g, err := New(gatewayConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range kinds {
		rec := httptest.NewRecorder()
		g.refuse(rec, &core.Verdict{Kind: core.VerdictKind(i + 1), Public: "refused"})
		status, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: DESIGN.md §17 has no row for it (the gateway answers %d)", name, rec.Code)
		case rec.Code != status:
			t.Errorf("%s: gateway answers %d, DESIGN.md §17 says %d", name, rec.Code, status)
		case status == http.StatusInternalServerError && name != "VerdictInternal":
			t.Errorf("%s: only VerdictInternal may be a 500", name)
		}
	}
	if len(want) != len(kinds) {
		t.Errorf("DESIGN.md §17 lists %d verdict classes, core declares %d", len(want), len(kinds))
	}
}
