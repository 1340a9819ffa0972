// Command myproxy-vet runs the repository's static-analysis suite
// (internal/analysis): security and correctness invariants — crypto-grade
// randomness, secrets kept out of logs, constant-time comparisons, %w error
// wrapping — checked mechanically over any package pattern.
//
// Usage:
//
//	myproxy-vet [-json | -sarif] [-stats] [-pass names] [patterns ...]
//
// Patterns default to ./.... Exit status is 0 when clean, 1 when findings
// were reported, 2 on load or usage errors. The one way to tolerate a
// finding is //myproxy:allow <pass> <reason> at its site; see DESIGN.md
// ("Static-analysis gate"). -json emits the findings as a JSON object;
// -sarif emits a SARIF 2.1.0 log for CI annotation upload. -pass
// name[,name...] restricts the run to the named passes (see -passes for
// the registry) — the fast loop when developing or deburring one pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (for CI annotation upload)")
	listPasses := flag.Bool("passes", false, "list the registered passes and exit")
	stats := flag.Bool("stats", false, "emit per-pass wall-time and finding-count JSON to stderr")
	passFilter := flag.String("pass", "", "run only the named passes, comma-separated (see -passes for the registry)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: myproxy-vet [-json | -sarif] [-stats] [-pass name[,name...]] [patterns ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut && *sarifOut {
		fmt.Fprintf(os.Stderr, "myproxy-vet: -json and -sarif are mutually exclusive\n")
		os.Exit(2)
	}

	if *listPasses {
		for _, p := range analysis.Passes {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		fmt.Printf("\nRun a subset with -pass name[,name...].\n")
		return
	}

	passes, err := selectPasses(*passFilter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rep, err := analysis.Run(patterns, passes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	for i := range rep.Findings {
		rep.Findings[i].File = relativize(cwd, rep.Findings[i].File)
	}

	if *sarifOut {
		out, err := analysis.SARIF(rep.Findings, analysis.Passes)
		if err == nil {
			_, err = os.Stdout.Write(append(out, '\n'))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	} else if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Findings   []analysis.Diagnostic `json:"findings"`
			Suppressed int                   `json:"suppressed"`
			// Stats carries the same per-pass wall-time and finding-count
			// data as -stats, so one -json artifact feeds both the CI
			// annotation step and the pass-cost trend tracking.
			Stats []analysis.PassStat `json:"stats"`
		}{Findings: rep.Findings, Suppressed: len(rep.Suppressed), Stats: rep.PassStats}
		if out.Findings == nil {
			out.Findings = []analysis.Diagnostic{}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range rep.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Pass, d.Message)
		}
		if len(rep.Findings) > 0 {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %d finding(s), %d suppressed by pragma\n",
				len(rep.Findings), len(rep.Suppressed))
		}
	}
	if *stats {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.PassStats); err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	}
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
}

// selectPasses resolves a -pass filter against the registry; an empty
// filter selects everything.
func selectPasses(filter string) ([]*analysis.Pass, error) {
	if filter == "" {
		return analysis.Passes, nil
	}
	byName := make(map[string]*analysis.Pass, len(analysis.Passes))
	for _, p := range analysis.Passes {
		byName[p.Name] = p
	}
	var out []*analysis.Pass
	seen := make(map[string]bool)
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("-pass: unknown pass %q (run -passes for the registry)", name)
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// relativize shortens abs to a cwd-relative path when that is tidier.
func relativize(cwd, path string) string {
	if cwd == "" {
		return path
	}
	rel, err := filepath.Rel(cwd, path)
	if err != nil || len(rel) >= len(path) {
		return path
	}
	return rel
}
