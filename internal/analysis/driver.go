package analysis

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Passes is the full analyzer suite, in documentation order: the syntactic
// passes first, then the flow-sensitive ones built on the CFG/dataflow
// engine.
var Passes = []*Pass{WeakRand, ConstTime, ErrWrap,
	Zeroize, SecretEscape, HotBlock,
	LogTaint}

// Report is the outcome of one analyzer run.
type Report struct {
	// Findings are the unsuppressed diagnostics, sorted by position.
	Findings []Diagnostic
	// Suppressed are diagnostics covered by a //myproxy:allow pragma,
	// kept for inspection and tests.
	Suppressed []Diagnostic
	// PassStats records per-pass wall time (summed across packages and
	// workers, so it can exceed the run's elapsed time) and unsuppressed
	// finding counts, in pass registration order.
	PassStats []PassStat
}

// PassStat is one pass's aggregate cost and yield for a run.
type PassStat struct {
	Pass     string  `json:"pass"`
	WallMS   float64 `json:"wall_ms"`
	Findings int     `json:"findings"`
}

// Run loads the patterns, executes the passes, and applies pragma
// suppression. Malformed pragmas surface as findings of the reserved
// "pragma" pass and cannot themselves be suppressed.
func Run(patterns []string, passes []*Pass) (*Report, error) {
	pkgs, err := Load(patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, passes), nil
}

// RunPackages executes the passes over already-loaded packages. Packages
// are analyzed concurrently on a bounded worker pool — the Context's
// cross-package tables are read-only by the time passes run, and the CFG
// memoizer takes a lock — while the summary computation stays sequential
// (its bottom-up SCC order is inherently serial per component and cheap
// relative to the passes).
func RunPackages(pkgs []*Package, passes []*Pass) *Report {
	ctx := &Context{SecretTypes: collectSecretTypes(pkgs)}
	ctx.Summaries = buildSummaries(ctx, pkgs)
	collectHotCone(ctx, pkgs)
	// Pragmas may name any registered pass, not just the ones in this run:
	// a -pass-filtered development run must not misreport the repository's
	// existing allowances as typos.
	known := make(map[string]bool, len(Passes)+len(passes))
	for _, p := range Passes {
		known[p.Name] = true
	}
	for _, p := range passes {
		known[p.Name] = true
	}
	pragmas, pragmaDiags := collectPragmas(pkgs, known)

	// Fan out per package; indexed result slots keep collection
	// order-independent (sortDiags fixes the final order regardless).
	perPkg := make([][]Diagnostic, len(pkgs))
	wall := make([][]time.Duration, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				times := make([]time.Duration, len(passes))
				var diags []Diagnostic
				for pi, pass := range passes {
					start := time.Now()
					diags = append(diags, pass.Run(ctx, pkgs[i])...)
					times[pi] = time.Since(start)
				}
				perPkg[i] = diags
				wall[i] = times
			}
		}()
	}
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var all []Diagnostic
	for _, ds := range perPkg {
		all = append(all, ds...)
	}

	rep := &Report{Findings: pragmaDiags}
	for _, d := range all {
		if pragmas.suppressed(d) {
			rep.Suppressed = append(rep.Suppressed, d)
		} else {
			rep.Findings = append(rep.Findings, d)
		}
	}
	sortDiags(rep.Findings)
	sortDiags(rep.Suppressed)

	rep.PassStats = make([]PassStat, len(passes))
	for pi, pass := range passes {
		var total time.Duration
		for i := range pkgs {
			total += wall[i][pi]
		}
		rep.PassStats[pi] = PassStat{Pass: pass.Name, WallMS: float64(total.Microseconds()) / 1000}
	}
	byPass := make(map[string]*PassStat, len(passes))
	for i := range rep.PassStats {
		byPass[rep.PassStats[i].Pass] = &rep.PassStats[i]
	}
	for _, d := range rep.Findings {
		if st := byPass[d.Pass]; st != nil {
			st.Findings++
		}
	}
	return rep
}

// sortDiags orders diagnostics fully deterministically — position, pass,
// then message — so -json/SARIF output is stable byte-for-byte across the
// parallel driver's scheduling.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}
