package main

import (
	"fmt"
	"io"
	"time"
)

// counters is a snapshot of what the program itself counts; the per-layer
// counter metrics are differences of two snapshots around the traced phase.
type counters struct {
	server                           map[string]int64 // core.Stats, summed over nodes
	verifyHits, verifyMisses         int64            // servers' proxy.VerifyCache
	poolHits, poolMisses, poolGenned int64            // keypool.Pool
	clientRetries                    int64
}

func (d *deployment) counters() counters {
	c := counters{server: d.serverStats(), clientRetries: d.clientStats.Retries.Load()}
	for _, srv := range d.servers {
		c.verifyHits += srv.VerifyCache().Hits()
		c.verifyMisses += srv.VerifyCache().Misses()
	}
	ps := d.pool.Snapshot()
	c.poolHits, c.poolMisses, c.poolGenned = ps.Hits, ps.Misses, ps.Generated
	return c
}

// spanStats aggregates the spans of a traced phase.
type spanStats struct {
	ms    [numSpanNames][]float64 // durations by span name
	opMs  map[uint32]float64      // root span duration by operation
	kind  map[uint32]opKind       // operation kind
	nodes map[uint32][]float64    // node-call durations by operation
	// nodeMs is the node-call durations by kind: on a cluster the budget's
	// unit is the call into one node, not the fanned-out operation.
	nodeMs [numOps][]float64
	// dial spans of GET and of PUT operations, split by whether the TLS
	// session resumed: the budget explains each with the matching probe.
	dialResumed, dialFull [numOps]int
	dialMs                [numOps]float64
	nodeCalls             []int // calls routed to each node
}

func aggregate(spans []span, nodes int) *spanStats {
	st := &spanStats{opMs: map[uint32]float64{}, kind: map[uint32]opKind{}, nodes: map[uint32][]float64{}, nodeCalls: make([]int, nodes)}
	for _, s := range spans {
		if s.name == spOp {
			st.kind[s.op] = s.kind
		}
	}
	for _, s := range spans {
		if s.failed {
			continue
		}
		ms := float64(s.end-s.start) / 1e6
		st.ms[s.name] = append(st.ms[s.name], ms)
		switch s.name {
		case spOp:
			st.opMs[s.op] = ms
		case spNodeCall:
			st.nodes[s.op] = append(st.nodes[s.op], ms)
			st.nodeMs[s.kind] = append(st.nodeMs[s.kind], ms)
			st.nodeCalls[s.node]++
		case spDial:
			if kind, ok := st.kind[s.op]; ok {
				st.dialMs[kind] += ms
				if s.resumed {
					st.dialResumed[kind]++
				} else {
					st.dialFull[kind]++
				}
			}
		}
	}
	return st
}

func (st *spanStats) mean(n spanName) float64 { return mean(st.ms[n]) }

// layerMetrics assembles the per-layer table from the traced phase, the
// counter differences around it, the tracer's wire counters and the probes.
func layerMetrics(d *deployment, base, traced *phase, st *spanStats, before, after counters, probes metrics, peakGoroutines int, notes *[]string) metrics {
	m := metrics{}
	for name, v := range probes {
		m[name] = v
	}
	t := d.t
	ops := float64(traced.ok)
	perOp := func(x float64) float64 { return ratio(x, ops) }

	// gsi
	dials := float64(t.dials.Load())
	m.set("gsi.dial_ms", st.mean(spDial), "ms")
	m.set("gsi.resumed_ratio", ratio(float64(t.resumed.Load()), dials), "ratio")
	m.set("gsi.conns_per_op", perOp(dials), "count")
	m.set("gsi.wire_bytes_per_op", perOp(float64(t.wireBytes.Load())), "B")
	m.set("gsi.wire_writes_per_op", perOp(float64(t.wireWrites.Load())), "count")

	// proxy
	hits, misses := float64(after.verifyHits-before.verifyHits), float64(after.verifyMisses-before.verifyMisses)
	m.set("proxy.verifycache_hit_ratio", ratio(hits, hits+misses), "ratio")

	// credstore
	storeCalls, storeBusy := 0.0, 0.0
	for _, c := range []struct {
		name string
		span spanName
	}{
		{"credstore.get_us", spStoreGet}, {"credstore.put_us", spStorePut},
		{"credstore.list_us", spStoreList}, {"credstore.delete_us", spStoreDelete},
	} {
		m.set(c.name, st.mean(c.span)*1e3, "us")
		storeCalls += float64(len(st.ms[c.span]))
		storeBusy += sum(st.ms[c.span])
	}
	m.set("credstore.calls_per_op", perOp(storeCalls), "count")
	m.set("credstore.busy_ms_per_op", perOp(storeBusy), "ms")
	m.set("credstore.file_bytes_per_entry", d.fileBytesPerEntry(), "B")

	// keypool
	poolHits, poolMisses := float64(after.poolHits-before.poolHits), float64(after.poolMisses-before.poolMisses)
	m.set("keypool.get_us", st.mean(spKeypoolGet)*1e3, "us")
	m.set("keypool.hit_ratio", ratio(poolHits, poolHits+poolMisses), "ratio")
	m.set("keypool.generated_per_op", perOp(float64(after.poolGenned-before.poolGenned)), "count")

	// core: client-visible latency by operation type, then the phases
	for _, c := range []struct {
		name string
		kind opKind
		p    float64
	}{
		{"core.get_ms_p50", opGet, 50}, {"core.get_ms_p99", opGet, 99},
		{"core.put_ms_p50", opPut, 50}, {"core.put_ms_p99", opPut, 99},
		{"core.info_ms_p50", opInfo, 50}, {"core.destroy_ms_p50", opDestroy, 50},
	} {
		lat := traced.lat(c.kind)
		v, note := tail(lat, c.p)
		if len(lat) > 0 {
			addNote(notes, c.name, note)
		}
		m.set(c.name, v, "ms")
	}
	for _, c := range []struct {
		name string
		span spanName
	}{
		{"core.get_request_ms", spGetRequest}, {"core.get_delegation_ms", spGetDelegation}, {"core.get_final_ms", spGetFinal},
		{"core.put_request_ms", spPutRequest}, {"core.put_delegation_ms", spPutDelegation}, {"core.put_final_ms", spPutFinal},
	} {
		m.set(c.name, st.mean(c.span), "ms")
	}
	m.set("core.server_errors", float64(after.server["errors"]-before.server["errors"]), "count")
	m.set("core.server_auth_failures", float64(after.server["auth_failures"]-before.server["auth_failures"]), "count")
	m.set("core.client_retries", float64(after.clientRetries-before.clientRetries), "count")
	m.set("core.streams_per_session", ratio(float64(after.server["streams"]), float64(after.server["sessions"])), "count")

	// cluster
	var overhead, slowestOverMean []float64
	nodeCalls, failovers := 0, 0
	for op, calls := range st.nodes {
		nodeCalls += len(calls)
		switch st.kind[op] {
		case opGet:
			failovers += len(calls) - 1
			if total, ok := st.opMs[op]; ok {
				overhead = append(overhead, (total-sum(calls))*1e3)
			}
		case opPut:
			slowest := 0.0
			for _, c := range calls {
				slowest = max(slowest, c)
			}
			slowestOverMean = append(slowestOverMean, ratio(slowest, mean(calls)))
		}
	}
	busiest := 0
	for _, n := range st.nodeCalls {
		busiest = max(busiest, n)
	}
	var putMs []float64
	if d.wl.rf > 0 {
		putMs = traced.lat(opPut)
	}
	m.set("cluster.get_overhead_us", mean(overhead), "us")
	m.set("cluster.put_fanout_ms", mean(putMs), "ms")
	m.set("cluster.put_slowest_over_mean", mean(slowestOverMean), "ratio")
	m.set("cluster.node_calls_per_op", perOp(float64(nodeCalls)), "count")
	m.set("cluster.failovers", float64(failovers), "count")
	m.set("cluster.replica_skew", ratio(float64(busiest)*float64(len(st.nodeCalls)), float64(nodeCalls)), "ratio")

	// runtime
	m.set("runtime.gc_cpu_fraction", traced.gcCPUFraction, "ratio")
	m.set("runtime.gc_pause_total_ms", float64(traced.gcPause)/float64(time.Millisecond), "ms")
	m.set("runtime.heap_inuse_mb", float64(traced.heapInuse)/(1<<20), "MiB")
	m.set("runtime.peak_rss_mb", peakRSSMiB(), "MiB")
	m.set("runtime.goroutines_peak", float64(peakGoroutines), "count")

	// trace
	m.set("trace.overhead_ratio", 1-ratio(traced.opsPerS(), base.opsPerS()), "ratio")
	return m
}

// budgetRow is one line of a latency budget: a phase the traced client
// timed, and the probe values that account for it.
type budgetRow struct {
	phase     string
	measured  float64 // mean over the traced phase, ms
	explained float64 // sum of the probe values below, ms
	by        string
}

// budget sets the traced-client phases of one operation type beside the
// probe values that explain them. The phases sum to the mean latency of
// the exchange by construction; what the probes do not account for —
// waiting for a core, the server's half of the handshake and its dispatch,
// the scheduler — is the remainder, reported rather than hidden. On a
// cluster the exchange is the call into one node: a PUT's calls run side
// by side, so their phases add up to more than the operation took.
func budget(d *deployment, kind opKind, st *spanStats, m metrics) (rows []budgetRow, total float64) {
	v := func(name string) float64 {
		x := m[name]
		if x.Unit == "us" {
			return x.Value / 1e3
		}
		return x.Value
	}
	opMs := st.nodeMs[kind]
	if d.wl.rf == 0 {
		for op, ms := range st.opMs {
			if st.kind[op] == kind {
				opMs = append(opMs, ms)
			}
		}
	}
	n := float64(len(opMs))
	if n == 0 {
		return nil, 0
	}
	total = mean(opMs)
	// Every operation's phases are averaged over all operations of the kind,
	// so that they add up to the mean latency (a session GET dials nothing).
	per := func(s spanName) float64 { return sum(st.ms[s]) / n }
	resumed, full := float64(st.dialResumed[kind])/n, float64(st.dialFull[kind])/n
	roundTrip := v("gsi.frame_roundtrip_us") + v("protocol.request_codec_us") + v("protocol.response_codec_us")
	dial := budgetRow{"gsi.dial", st.dialMs[kind] / n, resumed*v("gsi.handshake_resumed_ms") + full*v("gsi.handshake_full_ms"),
		fmt.Sprintf("%.2f x handshake_resumed + %.2f x handshake_full", resumed, full)}
	switch kind {
	case opGet:
		request := budgetRow{"core.get_request", per(spGetRequest), roundTrip + v("credstore.get_us") + v("credstore.unseal_ms"),
			"frame_roundtrip + codecs + credstore.get + unseal"}
		if d.wl.sessions {
			request.explained -= v("credstore.unseal_ms")
			request.by = "frame_roundtrip + codecs + credstore.get (unseal cached by the session)"
		}
		rows = []budgetRow{dial, request,
			{"core.get_delegation", per(spGetDelegation), v("gsi.delegate_ms"), "delegate"},
			{"core.get_final", per(spGetFinal), 0, "(verdict already on the wire)"}}
	case opPut:
		rows = []budgetRow{dial,
			{"core.put_request", per(spPutRequest), roundTrip + v("policy.passphrase_check_us"), "frame_roundtrip + codecs + passphrase_check"},
			{"core.put_delegation", per(spPutDelegation), v("gsi.delegate_ms"), "delegate"},
			{"core.put_final", per(spPutFinal), v("proxy.verify_miss_us") + v("credstore.get_us") + v("credstore.seal_ms") + v("credstore.put_us"),
				"verify_miss + credstore.get + seal + credstore.put"}}
	}
	return rows, total
}

// addBudgets computes the GET and PUT budgets, stores their summary
// metrics in m and prints them to w.
func addBudgets(w io.Writer, d *deployment, st *spanStats, m metrics) {
	for _, b := range []struct {
		kind     opKind
		coverage string
		rest     string
	}{
		{opGet, "trace.get_coverage_ratio", "trace.get_unattributed_ms"},
		{opPut, "trace.put_coverage_ratio", ""},
	} {
		rows, total := budget(d, b.kind, st, m)
		explained, measured := 0.0, 0.0
		for _, r := range rows {
			explained += r.explained
			measured += r.measured
		}
		m.set(b.coverage, ratio(explained, total), "ratio")
		if b.rest != "" {
			m.set(b.rest, total-explained, "ms")
		}
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s budget (traced run; phase means in ms beside the probe medians that explain them)\n", opNames[b.kind])
		fmt.Fprintf(w, "  %-22s %9s %10s  %s\n", "phase", "measured", "explained", "explained by")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-22s %9.4f %10.4f  %s\n", r.phase, r.measured, r.explained, r.by)
		}
		unit := "operation (mean)"
		if d.wl.rf > 0 {
			unit = "node call (mean)"
		}
		fmt.Fprintf(w, "  %-22s %9.4f %10.4f  coverage %.3f, unattributed %.4f ms (phases sum to %.4f)\n",
			unit, total, explained, ratio(explained, total), total-explained, measured)
	}
}
