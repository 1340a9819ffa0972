package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expect.txt files")

// fixtures lists one fixture package per pass, plus the pragma-handling
// fixture. Each directory holds an expect.txt golden with the unsuppressed
// findings in "file:line:col: pass: message" form.
var fixtures = []string{
	"weakrand", "consttime", "errwrap", "pragma",
	"zeroize",
	"lockcheck", "guardedby", "goroleak",
	"verdict", "nilness",
	"secretescape", "hotblock",
	"logtaint",
}

func TestGolden(t *testing.T) {
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			rep, err := Run([]string{"./testdata/src/" + name}, Passes)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := renderDiags(t, rep.Findings)
			golden := filepath.Join("testdata", "src", name, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to generate): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// renderDiags formats diagnostics with paths relative to this package's
// directory, so the goldens are stable across checkouts.
func renderDiags(t *testing.T, ds []Diagnostic) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	var b strings.Builder
	for _, d := range ds {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil {
			file = rel
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.ToSlash(file), d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
	}
	return b.String()
}

// TestPragmaScoping pins the suppression semantics down beyond the golden:
// a pragma silences exactly its named pass on exactly its target line.
func TestPragmaScoping(t *testing.T) {
	rep, err := Run([]string{"./testdata/src/pragma"}, Passes)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	find := func(ds []Diagnostic, pass string, line int) bool {
		for _, d := range ds {
			if d.Pass == pass && d.Pos.Line == line {
				return true
			}
		}
		return false
	}

	// Line 14 triggers both weakrand and logtaint; the trailing pragma
	// names only weakrand.
	if find(rep.Findings, "weakrand", 14) {
		t.Errorf("weakrand on line 14 should be suppressed by its pragma")
	}
	if !find(rep.Suppressed, "weakrand", 14) {
		t.Errorf("weakrand on line 14 should appear in Suppressed")
	}
	if !find(rep.Findings, "logtaint", 14) {
		t.Errorf("logtaint on line 14 must survive a weakrand-only pragma")
	}

	// Line 20's finding is covered by the standalone pragma on line 19.
	if find(rep.Findings, "weakrand", 20) {
		t.Errorf("weakrand on line 20 should be suppressed by the standalone pragma")
	}
	if !find(rep.Suppressed, "weakrand", 20) {
		t.Errorf("weakrand on line 20 should appear in Suppressed")
	}

	// Line 26's pragma has no rationale: the pragma itself is a finding and
	// the weakrand finding is NOT suppressed.
	if !find(rep.Findings, "pragma", 26) {
		t.Errorf("reason-less pragma on line 26 should be a pragma finding")
	}
	if !find(rep.Findings, "weakrand", 26) {
		t.Errorf("weakrand on line 26 must survive a malformed pragma")
	}

	// Line 31 names a pass that does not exist.
	if !find(rep.Findings, "pragma", 31) {
		t.Errorf("unknown pass name on line 31 should be a pragma finding")
	}
}
