package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestScheduleReproducible(t *testing.T) {
	m := workloadByName("mixed_file").mix
	a, shaA := buildSchedule(7, 2, numUsers, m)
	b, shaB := buildSchedule(7, 2, numUsers, m)
	if shaA != shaB || !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different schedules: %s vs %s", shaA, shaB)
	}
	if _, shaC := buildSchedule(8, 2, numUsers, m); shaC == shaA {
		t.Errorf("seeds 7 and 8 gave the same schedule %s", shaA)
	}
}

// TestScheduleMix checks the stated shares over a schedule of the size a
// 30 s run consumes, and that users stay with their worker and every
// DESTROY is followed by its PUT.
func TestScheduleMix(t *testing.T) {
	for _, c := range []struct {
		workload string
		want     [numOps]float64
	}{
		{"get_exchange", [numOps]float64{opGet: 1}},
		{"mixed_file", [numOps]float64{opGet: 0.60, opPut: 0.30, opInfo: 0.05, opDestroy: 0.05}},
		{"cluster_rf2", [numOps]float64{opGet: 0.80, opPut: 0.20}},
	} {
		wl := workloadByName(c.workload)
		sched, _ := buildSchedule(1, wl.workers, numUsers, wl.mix)
		var count [numOps]float64
		total := 0.0
		for w, ops := range sched {
			for i, o := range ops {
				count[o.kind]++
				total++
				if int(o.user)%wl.workers != w {
					t.Fatalf("%s: worker %d was given user %d", c.workload, w, o.user)
				}
				if o.kind == opDestroy && (i+1 == len(ops) || ops[i+1] != op{opPut, o.user}) {
					t.Fatalf("%s: DESTROY at %d of worker %d is not followed by its PUT", c.workload, i, w)
				}
			}
		}
		for k, want := range c.want {
			if got := count[k] / total; math.Abs(got-want) > 0.01 {
				t.Errorf("%s: %s share %.4f, want %.2f within 0.01", c.workload, opNames[k], got, want)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {0.1, 1}} {
		if got, err := percentile(xs, c.p); err != nil || got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, %v; want %g", c.p, got, err, c.want)
		}
	}
	// p99.5 of 1000 samples has five beyond it, p99 of 999 has nine.
	if _, err := percentile(xs, 99.5); err == nil {
		t.Error("percentile(1..1000, 99.5) was not refused")
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("percentile(1..999, 99) was not refused")
	}
	if got, note := tail(xs[:999], 99); got != 989 || note == "" {
		t.Errorf("tail(1..999, 99) = %g, %q; want 989 and a note", got, note)
	}
}

// TestQuickAllWorkloads is the smoke test: every workload in both modes for
// 2 s with all checks on, no failed operation, every metric BENCHMARK.json
// names present and finite. It keeps both CPUs of the sandbox busy for a
// minute, and `go test ./...` runs packages side by side: with it in, the
// two tier-1 tests ROADMAP.md lists as flaky under load
// (core.TestSessionPipelinesExchanges, mss.TestUnmappedIdentityRefused)
// failed in two full runs out of two, against one in three without. So it
// runs only when asked for: BENCH_SMOKE=1 go test ./bench
func TestQuickAllWorkloads(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run eight 2 s load tests")
	}
	type declared struct{ Name, Unit string }
	var contract struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, wl := range workloads {
		for _, mode := range []string{"0", "1"} {
			res, err := run(config{workload: wl.name, seed: 1, seconds: 2, trace: mode, quick: true, out: out}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %s: %v", wl.name, mode, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: %d failed of %d attempted: %v", wl.name, mode, res.Failed, res.Attempted, res.Failures)
			}
			want := contract.EndToEnd
			if mode == "1" {
				want = contract.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", wl.name, mode, len(res.Metrics), len(want))
			}
			for _, decl := range want {
				m, ok := res.Metrics[decl.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != decl.Unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), declared unit %q", wl.name, mode, decl.Name, m, ok, decl.Unit)
				}
				if mode == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", wl.name, decl.Name, m.Value)
				}
			}
		}
	}
}

// TestTracedClientParity drives one 50-operation schedule, refusals
// included, through core.Client and through the traced client against one
// server, and demands identical verdicts and identical server counters: the
// traced client re-composes the exchanges, and must not drift from the
// client it stands in for.
func TestTracedClientParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a deployment")
	}
	wl := &workload{name: "parity", workers: 1, nodes: 1, mix: workloadByName("mixed_file").mix}
	tr := newTracer()
	defer tr.release()
	d, err := newDeployment(wl, 1, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sched, _ := buildSchedule(3, 1, numUsers, wl.mix)
	ops := sched[0][:50]
	if ops[49].kind == opDestroy {
		ops = sched[0][:51] // keep the DESTROY's PUT
	}

	drive := func(ctx context.Context) (verdicts []string, delta map[string]int64) {
		before := d.serverStats()
		for i, o := range ops {
			name, pass := d.names[o.user], passphrase
			if i%7 == 3 && o.kind != opPut {
				pass = "not the pass phrase" // a refusal must read the same through both
			}
			var err error
			switch o.kind {
			case opGet:
				_, err = d.portalRepo.Get(ctx, core.GetOptions{Username: name, Passphrase: pass, Lifetime: getLifetime})
			case opPut:
				err = d.put(ctx, int(o.user))
			case opInfo:
				_, err = d.userRepo(int(o.user)).Info(ctx, name, pass)
			case opDestroy:
				err = d.userRepo(int(o.user)).Destroy(ctx, name, pass, "")
			}
			verdicts = append(verdicts, fmt.Sprintf("%s %s: %v", opNames[o.kind], name, err))
		}
		delta = d.serverStats()
		for k, v := range before {
			delta[k] -= v
		}
		return verdicts, delta
	}

	plainVerdicts, plainStats := drive(context.Background())
	tr.on.Store(true)
	root := tr.startOp(opGet)
	tracedVerdicts, tracedStats := drive(withSpan(context.Background(), root.ref()))
	tr.on.Store(false)

	if !reflect.DeepEqual(plainVerdicts, tracedVerdicts) {
		for i := range plainVerdicts {
			if plainVerdicts[i] != tracedVerdicts[i] {
				t.Errorf("op %d: core.Client %q, traced client %q", i, plainVerdicts[i], tracedVerdicts[i])
			}
		}
	}
	if !reflect.DeepEqual(plainStats, tracedStats) {
		t.Errorf("server counters differ:\n core.Client %v\n traced      %v", plainStats, tracedStats)
	}
	if plainStats["gets"] == 0 || plainStats["puts"] == 0 || plainStats["auth_failures"] == 0 {
		t.Errorf("schedule did not cover GET, PUT and a refusal: %v", plainStats)
	}
	if n := len(tr.snapshot()); n < len(ops) {
		t.Errorf("traced pass recorded %d spans for %d operations", n, len(ops))
	}
}
