package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// citation matches a test or benchmark named in backquotes: `core.TestOTPFlow`
// names a test in internal/core, a bare `TestCLIRevocation` or
// `BenchmarkFig1Init` one in this package.
var citation = regexp.MustCompile("`(?:([a-z]\\w*)\\.)?((?:Test|Benchmark)[A-Z]\\w*)")

// TestExperimentsCiteLiveTests holds EXPERIMENTS.md and DESIGN.md §3 to the
// tests they cite: every claim E1–E12 names at least one test, and every
// cited test or benchmark is declared under that name. A rename then fails
// here instead of leaving a paper claim asserted by nothing.
func TestExperimentsCiteLiveTests(t *testing.T) {
	experiments := readDoc(t, "EXPERIMENTS.md")
	design := readDoc(t, "DESIGN.md")
	start := strings.Index(design, "\n## 3. ")
	end := strings.Index(design, "\n## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 followed by §4")
	}
	design = design[start:end]

	for n := 1; n <= 12; n++ {
		id := fmt.Sprintf("E%d", n)
		section := between(experiments, "\n## "+id+" ", "\n## ")
		if !citesTest(section) {
			t.Errorf("EXPERIMENTS.md %s cites no test", id)
		}
		if row := between(design, "\n| "+id+" |", "\n"); !citesTest(row) {
			t.Errorf("DESIGN.md §3 row %s cites no test", id)
		}
	}
	checked := make(map[string]bool)
	for _, m := range citation.FindAllStringSubmatch(experiments+design, -1) {
		if checked[m[0]] {
			continue
		}
		checked[m[0]] = true
		if err := declared(m[1], m[2]); err != nil {
			t.Errorf("cited %s: %v", strings.TrimPrefix(m[0], "`"), err)
		}
	}
}

// TestProtocolTablesMatchTheCode holds two PROTOCOL.md tables to the code
// they enumerate: §2's COMMAND row to the commands protocol knows, by
// number and name, and §4's endpoint table to the POST routes httpgate.New
// registers. (DESIGN.md §17's verdict table is held by
// httpgate.TestRefuseMapsEveryVerdictKind.)
func TestProtocolTablesMatchTheCode(t *testing.T) {
	doc := readDoc(t, "PROTOCOL.md")

	row := between(doc, "\n| `COMMAND` | ", " |")
	if row == "" {
		t.Fatal("PROTOCOL.md §2 has no COMMAND row")
	}
	documented, known := strings.Split(row, ", "), []string(nil)
	for n := 0; n < 256; n++ {
		if c := protocol.Command(n); c.Valid() {
			known = append(known, strconv.Itoa(n)+" "+c.String())
		}
	}
	if strings.Join(documented, ", ") != strings.Join(known, ", ") {
		t.Errorf("PROTOCOL.md §2 COMMAND row lists\n\t%s\nprotocol knows\n\t%s", strings.Join(documented, ", "), strings.Join(known, ", "))
	}

	documented = regexp.MustCompile("(?m)^\\| `(POST /v1/\\w+)` \\|").FindAllString(between(doc, "\n## 4. ", "\n## "), -1)
	for i, m := range documented {
		documented[i] = strings.Trim(m, "|` ")
	}
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "httpgate", "httpgate.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var routes []string
	ast.Inspect(file, func(n ast.Node) bool {
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name != "New" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HandleFunc" {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok {
				route, _ := strconv.Unquote(lit.Value)
				routes = append(routes, route)
			}
		}
		return true
	})
	sort.Strings(documented)
	sort.Strings(routes)
	if strings.Join(documented, ", ") != strings.Join(routes, ", ") {
		t.Errorf("PROTOCOL.md §4 lists endpoints\n\t%s\nhttpgate.New registers\n\t%s", strings.Join(documented, ", "), strings.Join(routes, ", "))
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// between returns text from the first occurrence of from up to the next
// occurrence of to after it, or "" when from is absent.
func between(text, from, to string) string {
	i := strings.Index(text, from)
	if i < 0 {
		return ""
	}
	rest := text[i+len(from):]
	if j := strings.Index(rest, to); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

func citesTest(text string) bool {
	for _, m := range citation.FindAllStringSubmatch(text, -1) {
		if strings.HasPrefix(m[2], "Test") {
			return true
		}
	}
	return false
}

// declared reports whether func name( is declared in a _test.go file of
// internal/pkg, or of this package when pkg is empty.
func declared(pkg, name string) error {
	dir := "."
	if pkg != "" {
		dir = filepath.Join("internal", pkg)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if bytes.Contains(data, []byte("\nfunc "+name+"(")) {
			return nil
		}
	}
	return fmt.Errorf("no func %s( in %s/*_test.go", name, dir)
}
