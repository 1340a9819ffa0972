package main

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestSelectPassesDefault(t *testing.T) {
	passes, err := selectPasses("")
	if err != nil {
		t.Fatalf("selectPasses(\"\"): %v", err)
	}
	if len(passes) != len(analysis.Passes) {
		t.Fatalf("empty filter selected %d passes, want the full registry (%d)",
			len(passes), len(analysis.Passes))
	}
}

func TestSelectPassesFilter(t *testing.T) {
	passes, err := selectPasses("secretescape, zeroize,hotblock,zeroize")
	if err != nil {
		t.Fatalf("selectPasses: %v", err)
	}
	var names []string
	for _, p := range passes {
		names = append(names, p.Name)
	}
	// Whitespace is trimmed and duplicates collapse; order is the caller's.
	if got := strings.Join(names, ","); got != "secretescape,zeroize,hotblock" {
		t.Fatalf("selected %q, want secretescape,zeroize,hotblock", got)
	}
}

func TestSelectPassesUnknown(t *testing.T) {
	if _, err := selectPasses("zeroize,nosuchpass"); err == nil {
		t.Fatal("unknown pass name should error")
	} else if !strings.Contains(err.Error(), "nosuchpass") {
		t.Fatalf("error should name the bad pass: %v", err)
	}
}

// TestPassFilterScopesRun pins the behavioral contract of -pass: a filtered
// run reports only the named passes' findings. The zeroize fixture trips
// zeroize but nothing from, say, weakrand.
func TestPassFilterScopesRun(t *testing.T) {
	passes, err := selectPasses("weakrand")
	if err != nil {
		t.Fatalf("selectPasses: %v", err)
	}
	rep, err := analysis.Run([]string{"repro/internal/analysis/testdata/src/zeroize"}, passes)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range rep.Findings {
		if d.Pass != "weakrand" && d.Pass != "pragma" {
			t.Errorf("filtered run leaked a %s finding: %s", d.Pass, d)
		}
	}
}
