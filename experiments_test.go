package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
