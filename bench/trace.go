package main

import (
	"bufio"
	"context"
	"crypto"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/credstore"
	"repro/internal/pki"
	"repro/internal/proxy"
)

// spanName indexes spanNames; spans store the index so the span buffer
// holds no pointers and the collector does not scan it.
type spanName uint8

const (
	spOp spanName = iota // root span of one operation; span.kind tells which
	spDial
	spGetRequest
	spGetDelegation
	spGetFinal
	spPutRequest
	spPutDelegation
	spPutFinal
	spRequest // INFO and DESTROY: one request, one verdict
	spStream  // one exchange on a multiplexed session stream
	spStoreGet
	spStorePut
	spStoreList
	spStoreDelete
	spStoreUsernames
	spKeypoolGet
	spNodeCall // one cluster.Client call into one node's client
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "gsi.dial", "core.get_request", "core.get_delegation", "core.get_final",
	"core.put_request", "core.put_delegation", "core.put_final", "core.request", "gsi.stream",
	"credstore.get", "credstore.put", "credstore.list", "credstore.delete", "credstore.usernames",
	"keypool.get", "cluster.node_call",
}

// span is one timed interval. Spans of one operation share op (0: none, see
// tracer.timed); parent is the id of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer was last reset.
type span struct {
	id, parent, op uint32
	name           spanName
	kind           opKind // for spOp and spNodeCall
	node           int8   // for spNodeCall; -1 otherwise
	failed         bool
	resumed        bool // for spDial: the TLS session resumed
	start, end     int64
}

// tracer keeps the spans and counters of a traced run in memory; the
// spans are written out when the run ends. Seams consult on so that the
// same deployment can first run untraced (the baseline that
// trace.overhead_ratio compares against) and then traced.
//
// Spans are stored as fixed-size records in memory obtained outside the Go
// heap. On the heap they would grow it by several times over a run — the
// program under test keeps only a few MiB live — and a larger heap is
// collected less often, so the traced phase would run faster than the
// untraced one for no reason of the program's.
type tracer struct {
	on atomic.Bool

	ids atomic.Uint32

	t0      time.Time     // set by reset, which runs while no span is open
	arena   []byte        // spanBytes per record
	used    atomic.Uint32 // records claimed
	release func()

	// Wire counters, fed by countingConn on both ends of every connection
	// opened while tracing is on: each byte is counted once, by its writer.
	dials, resumed, wireBytes, wireWrites atomic.Int64
}

const (
	spanBytes = 32
	// maxSpans bounds the arena: a 60 s run of the fastest workload records
	// about a million spans. Pages never written cost nothing.
	maxSpans = 1 << 21
)

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.arena, t.release = offHeap(maxSpans * spanBytes)
	return t
}

// reset drops everything recorded so far; the traced warm-up ends with it.
func (t *tracer) reset() {
	t.t0 = time.Now()
	t.used.Store(0)
	t.dials.Store(0)
	t.resumed.Store(0)
	t.wireBytes.Store(0)
	t.wireWrites.Store(0)
}

// dropped reports how many spans did not fit the arena.
func (t *tracer) dropped() int { return max(0, int(t.used.Load())-maxSpans) }

// spanRef names a span as the parent of others.
type spanRef struct{ op, id uint32 }

type spanKey struct{}

// withSpan returns a context under which traced clients record their spans
// as children of ref. A context without one means "not traced".
func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// openSpan is a started, not yet recorded span.
type openSpan struct {
	t     *tracer
	s     span
	began time.Time
}

// start opens a span under parent; under the zero spanRef the span is a
// root that belongs to no operation.
func (t *tracer) start(parent spanRef, name spanName) openSpan {
	return openSpan{t: t, began: time.Now(), s: span{
		id: t.ids.Add(1), parent: parent.id, op: parent.op, name: name, node: -1,
	}}
}

// startOp opens the root span of a new operation.
func (t *tracer) startOp(kind opKind) openSpan {
	sp := t.start(spanRef{}, spOp)
	sp.s.op = sp.s.id
	sp.s.kind = kind
	return sp
}

func (o *openSpan) ref() spanRef { return spanRef{op: o.s.op, id: o.s.id} }

// Flag bits of a span record.
const (
	flagFailed  = 1
	flagResumed = 2
)

// end records the span; err marks it failed. Each span claims a record of
// its own, so recording takes no lock.
func (o *openSpan) end(err error) {
	dur := time.Since(o.began)
	t := o.t
	i := int(t.used.Add(1)) - 1
	if i >= maxSpans {
		return
	}
	s, rec := &o.s, t.arena[i*spanBytes:][:spanBytes]
	flags := byte(0)
	if err != nil {
		flags |= flagFailed
	}
	if s.resumed {
		flags |= flagResumed
	}
	start := uint64(o.began.Sub(t.t0))
	binary.LittleEndian.PutUint32(rec[0:], s.id)
	binary.LittleEndian.PutUint32(rec[4:], s.parent)
	binary.LittleEndian.PutUint32(rec[8:], s.op)
	binary.LittleEndian.PutUint64(rec[12:], start)
	binary.LittleEndian.PutUint64(rec[20:], start+uint64(dur))
	rec[28], rec[29], rec[30], rec[31] = byte(s.name), byte(s.kind), byte(s.node), flags
}

// snapshot decodes the spans recorded since the last reset.
func (t *tracer) snapshot() []span {
	n := min(int(t.used.Load()), maxSpans)
	spans := make([]span, n)
	for i := range spans {
		rec := t.arena[i*spanBytes:][:spanBytes]
		spans[i] = span{
			id: binary.LittleEndian.Uint32(rec[0:]), parent: binary.LittleEndian.Uint32(rec[4:]), op: binary.LittleEndian.Uint32(rec[8:]),
			start: int64(binary.LittleEndian.Uint64(rec[12:])), end: int64(binary.LittleEndian.Uint64(rec[20:])),
			name: spanName(rec[28]), kind: opKind(rec[29]), node: int8(rec[30]),
			failed: rec[31]&flagFailed != 0, resumed: rec[31]&flagResumed != 0,
		}
	}
	return spans
}

// writeSpans writes spans as one JSON document.
func writeSpans(path, workload string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"spans\":[\n", workload)
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start\":%d,\"end\":%d",
			s.id, s.parent, s.op, spanNames[s.name], s.start, s.end)
		if s.name == spOp || s.name == spNodeCall {
			fmt.Fprintf(w, ",\"kind\":%q", opNames[s.kind])
		}
		if s.node >= 0 {
			fmt.Fprintf(w, ",\"node\":%d", s.node)
		}
		if s.resumed {
			fmt.Fprint(w, ",\"resumed\":true")
		}
		if s.failed {
			fmt.Fprint(w, ",\"failed\":true")
		}
		fmt.Fprintf(w, "}%s\n", sep)
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}

// --- seams: decorators installed through the program's own injection points ---

// timed runs fn under a root span that belongs to no operation — the seams
// on the server's side of the wire cannot know which operation they serve —
// or, while tracing is off, just runs it.
func (t *tracer) timed(name spanName, fn func() error) error {
	if !t.on.Load() {
		return fn()
	}
	sp := t.start(spanRef{}, name)
	err := fn()
	sp.end(err)
	return err
}

// storeSeam times every call into a credstore.Backend (ServerConfig.Store).
type storeSeam struct {
	inner credstore.Backend
	t     *tracer
}

func (s *storeSeam) Put(e *credstore.Entry) error {
	return s.t.timed(spStorePut, func() error { return s.inner.Put(e) })
}

func (s *storeSeam) Get(username, name string) (e *credstore.Entry, err error) {
	err = s.t.timed(spStoreGet, func() error { e, err = s.inner.Get(username, name); return err })
	return e, err
}

func (s *storeSeam) List(username string) (es []*credstore.Entry, err error) {
	err = s.t.timed(spStoreList, func() error { es, err = s.inner.List(username); return err })
	return es, err
}

func (s *storeSeam) Delete(username, name string) error {
	return s.t.timed(spStoreDelete, func() error { return s.inner.Delete(username, name) })
}

func (s *storeSeam) Usernames() (us []string, err error) {
	err = s.t.timed(spStoreUsernames, func() error { us, err = s.inner.Usernames(); return err })
	return us, err
}

// keySeam times every draw from the key source (ServerConfig.KeySource,
// Client.KeySource).
type keySeam struct {
	inner proxy.KeySource
	t     *tracer
}

func (k *keySeam) Get(ctx context.Context, spec pki.KeySpec) (key crypto.Signer, err error) {
	err = k.t.timed(spKeypoolGet, func() error { key, err = k.inner.Get(ctx, spec); return err })
	return key, err
}

// countingConn counts what one side writes to a connection.
type countingConn struct {
	net.Conn
	t *tracer
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.wireBytes.Add(int64(n))
	c.t.wireWrites.Add(1)
	return n, err
}

// dial is the Client.DialContext seam: connections opened while tracing is
// on are counted, and their writes too.
func (t *tracer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	raw, err := d.DialContext(ctx, network, addr)
	if err != nil || !t.on.Load() {
		return raw, err
	}
	t.dials.Add(1)
	return &countingConn{Conn: raw, t: t}, nil
}

// countingListener is the server end of the same seam: core.Server.Serve
// takes any net.Listener.
type countingListener struct {
	net.Listener
	t *tracer
}

func (l *countingListener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil || !l.t.on.Load() {
		return raw, err
	}
	return &countingConn{Conn: raw, t: l.t}, nil
}
