// Command bench is the repository's load benchmark: four closed-loop
// workloads against in-process repository servers on loopback TCP, the
// end-to-end metrics a portal or a CLI user would see, and a per-layer
// table measured from outside the program — through its exported injection
// points and by timed calls into its exported functions. README.md in this
// directory says what each workload and metric is for, and what a later
// performance claim may rest on.
//
//	go run ./bench                                  # every workload, untraced then traced
//	go run ./bench -workload mixed_file -trace 0    # one measured run
//	go run ./bench -quick                           # 2 s per run, for a smoke test
//
// One process measures one workload in one mode, so set-up time and memory
// are that workload's own; without -workload and -trace the command starts
// one such process after another. The last line of standard output is the
// result as one JSON object.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	workers  int // 0: the workload's own count
	trace    string
	quick    bool
	jsonOnly bool
	out      string
}

// environment is recorded in every result file: the numbers mean nothing
// without it.
type environment struct {
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	OutputFS   string `json:"output_fs"`
	GitCommit  string `json:"git_commit"`
}

func readEnvironment(out string) environment {
	env := environment{
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", OutputFS: fsType(out), GitCommit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(rev))
	}
	return env
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// result is what one run writes to its result file.
type result struct {
	Workload       string    `json:"workload"`
	Why            string    `json:"why"`
	Trace          string    `json:"trace"`
	Seed           int64     `json:"seed"`
	Workers        int       `json:"workers"`
	Seconds        float64   `json:"seconds"`
	WarmupSeconds  float64   `json:"warmup_seconds"`
	ScheduleSHA256 string    `json:"schedule_sha256"`
	Users          int       `json:"users"`
	KDFIterations  int       `json:"kdf_iterations"`
	DelegationKeys string    `json:"delegation_keys"`
	IdentityKeys   string    `json:"identity_keys"`
	KeyPoolSize    int       `json:"keypool_size"`
	SetupRuns      []float64 `json:"setup_s_runs,omitempty"`
	// Windows holds each end-to-end timing's value in every window of the
	// measured run; the reported value is the median.
	Windows     map[string][]float64 `json:"windows,omitempty"`
	Environment environment          `json:"environment"`
	Notes       []string             `json:"notes,omitempty"`
	Failures    []string             `json:"failures,omitempty"`
	summary
}

const (
	warmup       = 2 * time.Second
	tracedWarmup = time.Second
	// setupRepeats is how often a measured run builds its deployment:
	// set-up is dominated by a few dozen RSA key generations whose time
	// varies, so setup_s is the median of several.
	setupRepeats = 3
	probeCalls   = 2000
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation schedule")
	flag.IntVar(&cfg.seconds, "seconds", 18, "measured seconds per run")
	flag.IntVar(&cfg.workers, "workers", 0, "closed-loop workers (0: the workload's own count, sized to this sandbox's 2 CPUs)")
	flag.StringVar(&cfg.trace, "trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; both: one process each")
	flag.BoolVar(&cfg.quick, "quick", false, "2 s runs, 200-call probes, one set-up: a smoke test, not a measurement")
	flag.BoolVar(&cfg.jsonOnly, "json", false, "print only the JSON result line")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for result files, span files and the file store")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if cfg.quick {
		cfg.seconds = 2
	}
	var human io.Writer = os.Stdout
	if cfg.jsonOnly {
		human = io.Discard
	}
	var sum *summary
	if cfg.workload == "all" || cfg.trace == "both" {
		sum = runAll(cfg, human)
	} else {
		res, err := run(cfg, human)
		if err != nil {
			fatal(err)
		}
		sum = &res.summary
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

// runAll runs each selected workload and mode in a process of its own and
// merges their summaries, metrics named <workload>.<metric>.
func runAll(cfg config, human io.Writer) *summary {
	names, modes := workloadNames(), []string{"0", "1"}
	if cfg.workload != "all" {
		names = []string{cfg.workload}
	}
	if cfg.trace != "both" {
		modes = []string{cfg.trace}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	total := &summary{Correct: true, Metrics: metrics{}}
	for _, name := range names {
		for _, mode := range modes {
			args := []string{"-workload", name, "-trace", mode, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-workers", fmt.Sprint(cfg.workers), "-out", cfg.out}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				fatal(err)
			}
			body, last := cutLastLine(out)
			fmt.Fprint(human, body)
			var sum summary
			if jerr := json.Unmarshal([]byte(last), &sum); jerr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %s ended without a result: %v\n", name, mode, err)
				total.Correct = false
				continue
			}
			total.Correct = total.Correct && sum.Correct
			total.Attempted += sum.Attempted
			total.Failed += sum.Failed
			for metricName, v := range sum.Metrics {
				total.Metrics[name+"."+metricName] = v
			}
		}
	}
	return total
}

// cutLastLine splits out into everything before its last line, and that line.
func cutLastLine(out []byte) (body, last string) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return string(out[:i+1]), string(out[i+1:])
}

// run measures one workload in one mode in this process.
func run(cfg config, human io.Writer) (*result, error) {
	wl := workloadByName(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.trace != "0" && cfg.trace != "1" {
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", cfg.trace)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = wl.workers
	}
	warm, tracedWarm, repeats, calls := warmup, tracedWarmup, setupRepeats, probeCalls
	if cfg.quick {
		warm, tracedWarm, repeats, calls = warm/4, tracedWarm/4, 1, 200
	}
	var t *tracer
	if cfg.trace == "1" {
		t, repeats = newTracer(), 1
		defer t.release()
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	measured := time.Duration(cfg.seconds) * time.Second

	sched, sha := buildSchedule(cfg.seed, workers, numUsers, wl.mix)
	res := &result{
		Workload: wl.name, Trace: cfg.trace, Seed: cfg.seed, Workers: workers,
		Seconds: measured.Seconds(), WarmupSeconds: warm.Seconds(), ScheduleSHA256: sha,
		Users: numUsers, KDFIterations: kdfIterations, DelegationKeys: delegationKeys.String(),
		IdentityKeys: fmt.Sprintf("rsa-%d", identityKeyBits), KeyPoolSize: keyPoolSize,
		Environment: readEnvironment(cfg.out),
	}
	env := res.Environment
	fmt.Fprintf(human, "\n== %s, trace %s: seed %d, %d worker(s), %v measured after %v warm-up\n", wl.name, cfg.trace, cfg.seed, workers, measured, warm)
	fmt.Fprintf(human, "   env: %s %s, nproc %d, GOMAXPROCS %d, cpu %q, output fs %s, commit %s\n",
		env.GoVersion, env.Platform, env.NumCPU, env.GOMAXPROCS, env.CPUModel, env.OutputFS, env.GitCommit)
	fmt.Fprintf(human, "   fixed: %d users, KDF %d iterations, delegation keys %s from a %d-key pool, identity keys %s\n",
		numUsers, kdfIterations, res.DelegationKeys, keyPoolSize, res.IdentityKeys)
	fmt.Fprintf(human, "   schedule_sha256: %s\n", sha)

	var d *deployment
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.Close()
		}
		began := time.Now()
		var err error
		if d, err = newDeployment(wl, workers, cfg.out, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(began).Seconds())
	}
	defer d.Close()

	r := newRunner(d, sched, measured)
	statsBase := d.serverStats()
	phases := []*phase{r.run(warm, 1, nil)}
	if t == nil {
		runtime.GC() // start every measured run from a collected heap
		p := r.run(measured, windowsIn(cfg.seconds), nil)
		phases = append(phases, p)
		res.Metrics, res.Windows = endToEnd(p, res.SetupRuns, &res.Notes)
		fmt.Fprintf(human, "\nend-to-end, tracing off: %d of %d operations succeeded in %.2f s; each timing is the median of %d windows\n",
			p.ok, p.attempted, p.elapsed.Seconds(), len(p.marks)-1)
	} else {
		base := r.run(measured/3, 1, nil)
		t.on.Store(true)
		warmed := r.run(tracedWarm, 1, t)
		t.reset()
		before := d.counters()
		stop, peak := make(chan struct{}), make(chan int, 1)
		go func() { peak <- goroutinePeak(stop) }()
		traced := r.run(measured-measured/3, 1, t)
		close(stop)
		peakGoroutines := <-peak
		t.on.Store(false)
		after := d.counters()
		spans := t.snapshot()
		if n := t.dropped(); n > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%d spans did not fit the span buffer and were dropped", n))
		}
		phases = append(phases, base, warmed, traced)
		fmt.Fprintf(human, "\nper-layer, traced run: %d of %d operations succeeded in %.2f s (%d spans); untraced baseline %.0f ops/s over %.2f s\n",
			traced.ok, traced.attempted, traced.elapsed.Seconds(), len(spans), base.opsPerS(), base.elapsed.Seconds())
		probes, err := runProbes(d, r.delegated[0], calls)
		if err != nil {
			return nil, err
		}
		st := aggregate(spans, len(d.servers))
		res.Metrics = layerMetrics(d, base, traced, st, before, after, probes, peakGoroutines, &res.Notes)
		addBudgets(human, d, st, res.Metrics)
		if err := writeSpans(filepath.Join(cfg.out, wl.name+".trace.json"), wl.name, spans); err != nil {
			return nil, err
		}
	}
	res.finish(d, r, statsBase, phases, human)
	res.print(human)
	file := filepath.Join(cfg.out, wl.name+".trace"+cfg.trace+".result.json")
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// finish runs the end-of-run checks and totals attempts and failures over
// every phase, warm-ups included: a failed operation is a failure whenever
// it happens.
func (res *result) finish(d *deployment, r *runner, statsBase map[string]int64, phases []*phase, human io.Writer) {
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += len(p.failures)
		for _, f := range p.failures {
			res.Failures = append(res.Failures, fmt.Sprintf("%s %s: %v", opNames[f.op.kind], d.names[f.op.user], f.err))
		}
	}
	for _, err := range d.checkFinal(statsBase, r.done) {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
	}
	res.Correct = res.Failed == 0
	for i, f := range res.Failures {
		if i == 20 {
			fmt.Fprintf(human, "FAILED: ... and %d more (all in the result file)\n", len(res.Failures)-i)
			break
		}
		fmt.Fprintln(human, "FAILED:", f)
	}
}

// print writes the metric table.
func (res *result) print(w io.Writer) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintln(bw)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(bw, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(bw, "  %-32s %14.6f ratio   (%d failed of %d attempted, all phases)\n", "fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if len(res.SetupRuns) > 1 {
		fmt.Fprintf(bw, "  setup_s is the median of %.3f\n", res.SetupRuns)
	}
	for _, name := range names {
		if w := res.Windows[name]; len(w) > 1 {
			fmt.Fprintf(bw, "  %s by window: %.4g\n", name, w)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintln(bw, "  note:", n)
	}
}
