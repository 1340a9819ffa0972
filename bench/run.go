package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/pki"
)

// failure is one operation that returned an error or failed its check.
type failure struct {
	op  op
	err error
}

// sample is one successful operation: when it completed, counted from the
// start of its phase, and how long the caller waited for it. It is kept
// small: the samples of a run are a fair share of this process's live heap.
type sample struct {
	atUs uint32
	ms   float32
	kind opKind
}

// mark is the process's own accounting at a window boundary.
type mark struct {
	at         time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

func takeMark(start time.Time, ms *runtime.MemStats) mark {
	runtime.ReadMemStats(ms)
	return mark{at: time.Since(start), cpu: cpuTime(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// phase is what one timed stretch of load produced.
type phase struct {
	elapsed time.Duration
	// samples are valid until the runner's next run, which reuses them.
	samples   []sample
	ok        int // len(samples), which outlives them
	attempted int
	failures  []failure
	// marks bound the phase's windows: marks[i] and marks[i+1] enclose
	// window i. The last one is taken when the phase's time is up, while
	// the operations then in flight are still completing; those belong to
	// no window.
	marks []mark

	// Process state over and after the whole stretch.
	gcPause       time.Duration
	heapInuse     uint64
	gcCPUFraction float64
}

func (p *phase) opsPerS() float64 { return ratio(float64(p.ok), p.elapsed.Seconds()) }

// lat returns the latencies of the phase's operations of one kind, sorted.
func (p *phase) lat(kind opKind) []float64 {
	var ms []float64
	for _, s := range p.samples {
		if s.kind == kind {
			ms = append(ms, float64(s.ms))
		}
	}
	sort.Float64s(ms)
	return ms
}

// maxOpsPerWorker is above what the fastest workload completes per worker
// and second (about 1100).
const maxOpsPerWorker = 2500

// runner drives the closed loop: each worker issues its next scheduled
// operation when the previous one has returned.
type runner struct {
	d      *deployment
	sched  [][]op
	cursor []int
	// samples is each worker's sample buffer, reused by every phase so that
	// the live heap stays the same size from the first phase to the last: a
	// heap that grew with the run would be collected less and less often,
	// and the run would speed up for no reason of the program's.
	samples [][]sample
	// done counts, by kind, the operations that succeeded in any phase; the
	// end-of-run check compares it with the servers' own counters.
	done [numOps]int64
	// delegated is each worker's latest GET result: the probes time chain
	// verification and PEM coding on what the repository really delivers.
	delegated []*pki.Credential
}

// newRunner sizes the sample buffers for phases up to longest.
func newRunner(d *deployment, sched [][]op, longest time.Duration) *runner {
	r := &runner{d: d, sched: sched, cursor: make([]int, len(sched)), samples: make([][]sample, len(sched)), delegated: make([]*pki.Credential, len(sched))}
	for w := range r.samples {
		r.samples[w] = make([]sample, 0, int(longest.Seconds()*maxOpsPerWorker)+1)
	}
	return r
}

// run applies load for dur, split into windows of equal length. With a
// tracer every operation gets a root span and the clients record their
// phases under it.
func (r *runner) run(dur time.Duration, windows int, t *tracer) *phase {
	parts := make([]phase, len(r.sched))
	for w := range parts {
		parts[w].samples = r.samples[w][:0]
	}
	var ms runtime.MemStats
	start := time.Now()
	p := &phase{marks: []mark{takeMark(start, &ms)}}
	gcPause := ms.PauseTotalNs
	var wg sync.WaitGroup
	for w := range r.sched {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.work(w, start, dur, t, &parts[w])
		}(w)
	}
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(windows))))
		p.marks = append(p.marks, takeMark(start, &ms))
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.gcPause = time.Duration(ms.PauseTotalNs - gcPause)
	p.heapInuse, p.gcCPUFraction = ms.HeapInuse, ms.GCCPUFraction
	for w := range parts {
		p.attempted += parts[w].attempted
		p.failures = append(p.failures, parts[w].failures...)
		r.samples[w] = parts[w].samples
		p.ok += len(parts[w].samples)
	}
	// One worker's samples can be handed out as they are; more are merged,
	// after the clock has stopped.
	p.samples = r.samples[0]
	if len(parts) > 1 {
		p.samples = nil
		for w := range parts {
			p.samples = append(p.samples, parts[w].samples...)
		}
	}
	for _, s := range p.samples {
		r.done[s.kind]++
	}
	return p
}

func (r *runner) work(w int, start time.Time, dur time.Duration, t *tracer, out *phase) {
	sched := r.sched[w]
	prev := opGet
	// A DESTROY is always followed by its PUT, time up or not: every phase
	// ends with all users' credentials in place.
	for prev == opDestroy || time.Since(start) < dur {
		o := sched[r.cursor[w]%len(sched)]
		r.cursor[w]++
		prev = o.kind
		ctx := context.Background()
		var root openSpan
		if t != nil {
			root = t.startOp(o.kind)
			ctx = withSpan(ctx, root.ref())
		}
		began := time.Now()
		res, err := r.d.exec(ctx, w, o)
		ended := time.Now()
		if t != nil {
			root.end(err)
		}
		if err == nil {
			err = r.d.check(o, res)
		}
		if res.cred != nil {
			r.delegated[w] = res.cred
		}
		out.attempted++
		if err != nil {
			out.failures = append(out.failures, failure{o, err})
			continue
		}
		out.samples = append(out.samples, sample{
			atUs: uint32(ended.Sub(start) / time.Microsecond), ms: float32(float64(ended.Sub(began)) / float64(time.Millisecond)), kind: o.kind,
		})
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// windowSeconds is the least length of a measuring window. A window must
// hold enough operations for a 99th percentile with ten samples beyond it
// — 1001 — at the slowest workload's rate, about 270 per second.
const windowSeconds = 4.5

// windowsIn is how many windows a measured run of the given length has.
func windowsIn(seconds int) int { return max(1, int(float64(seconds)/windowSeconds)) }

// endToEnd computes the user-visible metrics of an untraced phase. Each
// timing is taken per window and the median over the windows is reported,
// so that a burst of interference from outside the process moves one
// window and not the result. (The best window was tried too: over ten runs
// per workload it spread no less than the median.) Allocations are counted,
// not timed, and do not suffer interference: they are taken over the whole
// phase. notes receives a line for every value that is not what its name
// says.
func endToEnd(p *phase, setup []float64, notes *[]string) (metrics, map[string][]float64) {
	series := map[string][]float64{}
	windows := len(p.marks) - 1
	byWindow := make([][]float64, windows)
	for _, s := range p.samples {
		at := time.Duration(s.atUs) * time.Microsecond
		for i := 0; i < windows; i++ {
			if at >= p.marks[i].at && at < p.marks[i+1].at {
				byWindow[i] = append(byWindow[i], float64(s.ms))
				break
			}
		}
	}
	for i, lat := range byWindow {
		from, to := p.marks[i], p.marks[i+1]
		ok := float64(len(lat))
		sort.Float64s(lat)
		p50, note := tail(lat, 50)
		addNote(notes, fmt.Sprintf("lat_p50_ms window %d", i), note)
		p99, note := tail(lat, 99)
		addNote(notes, fmt.Sprintf("lat_p99_ms window %d", i), note)
		for name, v := range map[string]float64{
			"ops_per_s":     ratio(ok, (to.at - from.at).Seconds()),
			"lat_p50_ms":    p50,
			"lat_p99_ms":    p99,
			"cpu_ms_per_op": ratio(float64(to.cpu-from.cpu)/float64(time.Millisecond), ok),
		} {
			series[name] = append(series[name], v)
		}
	}
	m := metrics{}
	m.set("setup_s", median(setup), "s")
	for name, unit := range map[string]string{"ops_per_s": "1/s", "lat_p50_ms": "ms", "lat_p99_ms": "ms", "cpu_ms_per_op": "ms"} {
		m.set(name, median(series[name]), unit)
	}
	// The whole phase, for this purpose, is first mark to last, and the
	// operations completed between them.
	first, last, ok := p.marks[0], p.marks[windows], 0.0
	for _, lat := range byWindow {
		ok += float64(len(lat))
	}
	m.set("allocs_per_op", ratio(float64(last.mallocs-first.mallocs), ok), "count")
	m.set("alloc_kb_per_op", ratio(float64(last.allocBytes-first.allocBytes)/1024, ok), "KiB")
	return m, series
}

func addNote(notes *[]string, name, note string) {
	if note != "" {
		*notes = append(*notes, fmt.Sprintf("%s: %s", name, note))
	}
}

// goroutinePeak samples the goroutine count until stop is closed and
// returns the highest value seen.
func goroutinePeak(stop <-chan struct{}) int {
	peak := runtime.NumGoroutine()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	}
}
