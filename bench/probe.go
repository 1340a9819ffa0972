package main

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/kdf"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// Probes time calls straight into a layer's exported functions, on inputs
// taken from the workload that just ran: an entry read back from the live
// store, a chain the repository actually delegated, the schedule's request.
// Each probe reports the median of its calls. They run after the load has
// stopped, so they see the layer's cost without contention; the budget
// sets them beside the contended phase times of the traced run.

// timeCalls runs fn calls times and returns the median duration in
// nanoseconds. A probe that has run for a second stops early once it has a
// quarter of its calls: the millisecond-scale ones (a full handshake, a
// seal) would otherwise take longer than the load they explain.
func timeCalls(calls int, fn func() error) (float64, error) {
	ns := make([]float64, 0, calls)
	for start := time.Now(); len(ns) < calls && (len(ns) < calls/4 || time.Since(start) < time.Second); {
		began := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(began)))
	}
	return median(ns), nil
}

// probeServer is the accepting side the gsi probes talk to: gsi.Server on a
// loopback listener, serving whichever exchange the first message names.
type probeServer struct {
	ln     net.Listener
	host   *pki.Credential
	opts   gsi.AuthOptions
	issuer *pki.Credential // signs the proxies of "delegate" mode
	wg     sync.WaitGroup
}

func startProbeServer(d *deployment, issuer *pki.Credential) (*probeServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tlsCfg, err := gsi.NewServerTLSConfig(d.hosts[0])
	if err != nil {
		_ = ln.Close() // nothing accepted yet
		return nil, err
	}
	s := &probeServer{ln: ln, host: d.hosts[0], issuer: issuer, opts: gsi.AuthOptions{
		Roots: d.roots, HandshakeTimeout: clientTimeout, Cache: proxy.NewVerifyCache(0), TLSConfig: tlsCfg,
	}}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *probeServer) accept() {
	defer s.wg.Done()
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(raw)
		}()
	}
}

func (s *probeServer) serve(raw net.Conn) {
	conn, err := gsi.Server(raw, s.host, s.opts)
	if err != nil {
		_ = raw.Close() // gsi.Server leaves raw open on a failed handshake
		return
	}
	defer conn.Close()
	conn.SetMessageTimeout(clientTimeout)
	mode, err := conn.ReadMessage()
	if err != nil {
		return // a handshake probe: the client only connects
	}
	switch string(mode) {
	case "echo":
		for echo(conn) == nil {
		}
	case "delegate":
		for {
			if _, err := gsi.Delegate(conn, s.issuer, proxy.Options{Lifetime: getLifetime}); err != nil {
				return
			}
		}
	case "mux":
		sess := gsi.NewServerSession(conn)
		defer sess.Close()
		for {
			st, err := sess.Accept()
			if err != nil {
				return
			}
			_ = echo(st)   // a failed echo shows up as the client's read error
			_ = st.Close() // releasing a stream cannot fail
		}
	}
}

func echo(ch gsi.Channel) error {
	msg, err := ch.ReadMessage()
	if err != nil {
		return err
	}
	return ch.WriteMessage(msg)
}

func (s *probeServer) close() {
	_ = s.ln.Close() // stops accept; connections end when their clients close
	s.wg.Wait()
}

// dial opens a probe connection in mode ("" for none) with the given
// client options.
func (s *probeServer) dial(cred *pki.Credential, opts gsi.AuthOptions, mode string) (*gsi.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
	defer cancel()
	conn, err := gsi.Dial(ctx, "tcp", s.ln.Addr().String(), cred, opts)
	if err != nil {
		return nil, err
	}
	conn.SetMessageTimeout(clientTimeout)
	if mode != "" {
		if err := conn.WriteMessage([]byte(mode)); err != nil {
			_ = conn.Close() // already failing
			return nil, err
		}
	}
	return conn, nil
}

// runProbes returns the probe metrics, calls timed calls each. delegated is
// a credential the workload's repository delegated.
func runProbes(d *deployment, delegated *pki.Credential, calls int) (metrics, error) {
	m := metrics{}
	// probe times fn and records the median under name, in the unit the
	// name ends in (microseconds unless "_ms").
	probe := func(name string, fn func() error) error {
		ns, err := timeCalls(calls, fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		if strings.HasSuffix(name, "_ms") {
			m.set(name, ns/1e6, "ms")
		} else {
			m.set(name, ns/1e3, "us")
		}
		return nil
	}
	if delegated == nil {
		return m, errors.New("probe: the workload delegated no credential")
	}
	pass := []byte(passphrase)

	// Inputs from the live system.
	entry, err := d.backends[ownerNode(d, 0)].Get(d.names[0], "")
	if err != nil {
		return m, fmt.Errorf("probe: read entry back: %w", err)
	}
	issuer, err := credstore.UnsealDelegated(entry, pass)
	if err != nil {
		return m, err
	}
	chain := delegated.CertChain()
	chainPEM := pki.EncodeCertsPEM(chain)
	getReq := &protocol.Request{Command: protocol.CmdGet, Username: d.names[0], Passphrase: passphrase, Lifetime: getLifetime}
	infoResp := &protocol.Response{Code: protocol.RespOK, Infos: []protocol.CredInfo{{
		Owner: entry.Owner, StartTime: entry.NotBefore.UTC(), EndTime: entry.NotAfter.UTC(),
	}}}
	verifyOpts := proxy.VerifyOptions{Roots: d.roots}

	// gsi: handshakes, frames, streams, delegation against gsi.Server.
	srv, err := startProbeServer(d, issuer)
	if err != nil {
		return m, err
	}
	defer srv.close()
	cold := gsi.AuthOptions{Roots: d.roots, ExpectedPeer: serverPattern, HandshakeTimeout: clientTimeout}
	warm := cold
	warm.Cache = proxy.NewVerifyCache(0)
	if warm.TLSConfig, err = gsi.NewClientTLSConfig(d.portal, tls.NewLRUClientSessionCache(0)); err != nil {
		return m, err
	}
	handshake := func(opts gsi.AuthOptions, wantResumed bool) func() error {
		return func() error {
			conn, err := srv.dial(d.portal, opts, "")
			if err != nil {
				return err
			}
			if conn.Resumed != wantResumed {
				_ = conn.Close() // already failing
				return fmt.Errorf("probe: handshake resumed=%v, want %v", conn.Resumed, wantResumed)
			}
			return conn.Close()
		}
	}
	if err := probe("gsi.handshake_full_ms", handshake(cold, false)); err != nil {
		return m, err
	}

	// The echo connection is the first under the warm options: its read
	// picks up the session ticket the resumed handshakes below present.
	conn, err := srv.dial(d.portal, warm, "echo")
	if err != nil {
		return m, err
	}
	payload := make([]byte, 1024)
	err = probe("gsi.frame_roundtrip_us", func() error {
		if err := conn.WriteMessage(payload); err != nil {
			return err
		}
		_, err := conn.ReadMessage()
		return err
	})
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return m, err
	}
	if err := probe("gsi.handshake_resumed_ms", handshake(warm, true)); err != nil {
		return m, err
	}

	if conn, err = srv.dial(d.portal, warm, "mux"); err != nil {
		return m, err
	}
	mux := gsi.NewClientSession(conn)
	err = probe("gsi.stream_roundtrip_us", func() error {
		st, err := mux.Open()
		if err != nil {
			return err
		}
		defer st.Close()
		if err := st.WriteMessage(payload); err != nil {
			return err
		}
		_, err = st.ReadMessage()
		return err
	})
	_ = mux.Close() // closes conn too; always nil
	if err != nil {
		return m, err
	}

	if conn, err = srv.dial(d.portal, warm, "delegate"); err != nil {
		return m, err
	}
	err = probe("gsi.delegate_ms", func() error {
		_, err := gsi.RequestDelegationFrom(conn, d.pool, delegationKeys, d.roots)
		return err
	})
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return m, err
	}

	// The remaining probes are plain function calls.
	key, err := pki.GenerateSigner(delegationKeys)
	if err != nil {
		return m, err
	}
	cache := proxy.NewVerifyCache(0)
	if _, err := cache.Verify(chain, verifyOpts); err != nil {
		return m, err
	}
	sealInto := &credstore.Entry{Username: entry.Username, Owner: entry.Owner}
	salt := make([]byte, 16)
	ring := d.ring
	plain := []struct {
		name string
		fn   func() error
	}{
		{"protocol.request_codec_us", func() error {
			data, err := protocol.MarshalRequest(getReq)
			if err != nil {
				return err
			}
			_, err = protocol.ParseRequest(data)
			return err
		}},
		{"protocol.response_codec_us", func() error {
			_, err := protocol.ParseResponse(protocol.MarshalResponse(infoResp))
			return err
		}},
		{"proxy.verify_miss_us", func() error {
			_, err := proxy.Verify(chain, verifyOpts)
			return err
		}},
		{"proxy.verify_hit_us", func() error {
			_, err := cache.Verify(chain, verifyOpts)
			return err
		}},
		{"proxy.create_us", func() error {
			_, err := proxy.Create(issuer, key.Public(), proxy.Options{Lifetime: getLifetime})
			return err
		}},
		{"credstore.unseal_ms", func() error {
			_, err := credstore.UnsealDelegated(entry, pass)
			return err
		}},
		{"credstore.seal_ms", func() error {
			return credstore.SealDelegated(sealInto, issuer, pass, kdfIterations)
		}},
		{"credstore.check_passphrase_ms", func() error {
			return entry.CheckPassphrase(pass)
		}},
		{"kdf.us_per_1k_iter", func() error {
			if len(kdf.SHA256Key(pass, salt, 1000, 32)) != 32 {
				return errors.New("probe: kdf returned a short key")
			}
			return nil
		}},
		{"pki.keygen_us", func() error {
			_, err := pki.GenerateSigner(delegationKeys)
			return err
		}},
		{"pki.encode_certs_pem_us", func() error {
			if len(pki.EncodeCertsPEM(chain)) == 0 {
				return errors.New("probe: empty PEM")
			}
			return nil
		}},
		{"pki.decode_certs_pem_us", func() error {
			_, err := pki.DecodeCertsPEM(chainPEM)
			return err
		}},
		{"policy.passphrase_check_us", func() error {
			return policy.PassphrasePolicy{}.Check(passphrase)
		}},
		{"cluster.ring_successors_us", func() error {
			if ring != nil && len(ring.Successors(d.names[0], d.wl.rf)) != d.wl.rf {
				return errors.New("probe: short replica set")
			}
			return nil
		}},
	}
	for _, p := range plain {
		if err := probe(p.name, p.fn); err != nil {
			return m, err
		}
	}
	if ring == nil {
		m.set("cluster.ring_successors_us", 0, "us")
	}
	return m, nil
}

// ownerNode is the index of a node that holds user u's credential.
func ownerNode(d *deployment, u int) int {
	if d.ring == nil {
		return 0
	}
	for i := range d.backends {
		if d.ring.Owns(nodeID(i), d.names[u], d.wl.rf) {
			return i
		}
	}
	return 0
}
