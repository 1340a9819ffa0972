package analysis

import "testing"

// TestSelfCheck runs the full analyzer suite over the repository's own
// source and asserts zero unsuppressed findings. This is the teeth of the
// verification gate: any new math/rand call, secret in a log line,
// variable-time comparison or lossy error wrap either gets fixed or gets an
// explicit //myproxy:allow rationale before this test passes again.
// Wildcard patterns skip testdata, so the fixture packages (which violate
// every pass on purpose) are not loaded here.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check recompiles the module's dependency closure")
	}
	rep, err := Run([]string{"repro/..."}, Passes)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range rep.Findings {
		t.Errorf("unsuppressed finding: %s", d)
	}
	if !t.Failed() {
		t.Logf("clean: %d finding(s) suppressed by pragma", len(rep.Suppressed))
	}
}
