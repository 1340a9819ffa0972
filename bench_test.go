// Benchmark harness: one benchmark per reproduced figure/claim (DESIGN.md
// §3, EXPERIMENTS.md) plus the ablations DESIGN.md calls out. Absolute
// numbers are machine-dependent; the shapes (who wins, how costs scale with
// chain depth, KDF iterations, key size, and fan-out) are the reproduction
// targets.
package repro

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gsi"
	"repro/internal/kdf"
	"repro/internal/otp"
	"repro/internal/pki"
	"repro/internal/portal"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// newDeployment builds a simulated Grid sized for benchmarking.
func newDeployment(b *testing.B, cfg sim.Config) *sim.Deployment {
	b.Helper()
	d, err := sim.NewDeployment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

// benchKeyPool sizes the keypair pool for hot-path benchmarks: large
// enough that a 100-iteration timed region plus seeding never drops stock
// to the refill low-water mark, so background workers stay asleep and the
// timed region measures the warm-pool fast path. Run these benchmarks
// with -benchtime 100x (scripts/bench.sh does); larger iteration counts
// outrun the stock and re-measure synchronous generation.
const benchKeyPool = 256

// newWarmDeployment is newDeployment plus a filled keypair pool — the
// steady state of a long-running repository, where pre-generation happened
// in the idle gaps between request bursts.
func newWarmDeployment(b *testing.B, cfg sim.Config) *sim.Deployment {
	b.Helper()
	cfg.KeyPoolSize = benchKeyPool
	d := newDeployment(b, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := d.WarmKeys(ctx, benchKeyPool); err != nil {
		b.Fatal(err)
	}
	return d
}

func seed(b *testing.B, d *sim.Deployment) {
	b.Helper()
	if err := d.SeedCredentials(context.Background(), 24*time.Hour); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig1Init measures one myproxy-init: authenticate, request, wire
// delegation into the repository, seal, store (paper Figure 1 / E1).
func BenchmarkFig1Init(b *testing.B) {
	d := newWarmDeployment(b, sim.Config{Users: 1})
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.UserClient(0, 0).Put(ctx, core.PutOptions{
			Username:   d.UserNames[0],
			Passphrase: d.Passphrase,
			Lifetime:   24 * time.Hour,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2GetDelegation measures one myproxy-get-delegation:
// authenticate, unseal, wire delegation back out (paper Figure 2 / E2).
func BenchmarkFig2GetDelegation(b *testing.B) {
	d := newWarmDeployment(b, sim.Config{Users: 1, Portals: 1})
	seed(b, d)
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Get(ctx, 0, 0, 0, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Algorithms sweeps the delegation key algorithm through the
// Fig. 2 exchange. RSA is the paper-fidelity baseline; the curve entries
// show the hot path with key generation taken off the critical path twice
// over (pool + cheap keygen).
func BenchmarkFig2Algorithms(b *testing.B) {
	for _, alg := range pki.KeyAlgorithms() {
		b.Run("alg="+alg.String(), func(b *testing.B) {
			d := newWarmDeployment(b, sim.Config{Users: 1, Portals: 1, KeyAlgorithm: alg})
			seed(b, d)
			ctx := context.Background()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Get(ctx, 0, 0, 0, time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2Multiplexed measures the Fig. 2 exchange over an open
// multiplexed session: the TCP+TLS handshake is paid once outside the
// timer, so each iteration is one stream carrying request + delegation.
// This is the repeat-visit cost for a portal holding a session open —
// the number the session mode exists to shrink.
func BenchmarkFig2Multiplexed(b *testing.B) {
	for _, alg := range pki.KeyAlgorithms() {
		b.Run("alg="+alg.String(), func(b *testing.B) {
			d := newWarmDeployment(b, sim.Config{Users: 1, Portals: 1, KeyAlgorithm: alg})
			seed(b, d)
			ctx := context.Background()
			sess, err := d.PortalClient(0, 0).NewSession(ctx)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			if !sess.Multiplexed() {
				b.Fatal("server declined session mode")
			}
			opts := core.GetOptions{
				Username: d.UserNames[0], Passphrase: d.Passphrase, Lifetime: time.Hour,
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Get(ctx, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3PortalFlow measures a complete browser session: HTTPS login
// (which performs Fig. 2 inside the portal), one job submission, logout
// (paper Figure 3 / E3).
func BenchmarkFig3PortalFlow(b *testing.B) {
	d := newWarmDeployment(b, sim.Config{Users: 1, Portals: 1, WithGRAM: true})
	seed(b, d)
	p, err := portal.New(portal.Config{
		Credential:      d.Portals[0],
		Roots:           d.Roots,
		MyProxyAddr:     d.RepoAddrs[0],
		ExpectedMyProxy: "/C=US/O=Sim Grid/CN=myproxy*",
		GRAMAddr:        d.GRAMAddr,
		KeyBits:         pki.DemoKeyBits,
		KeySource:       d.Keys(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go p.Serve(ln)
	b.Cleanup(func() { ln.Close() })

	jar, _ := cookiejar.New(nil)
	browser := &http.Client{
		Jar: jar,
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: d.Roots, ServerName: "portal00.sim"},
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				var dialer net.Dialer
				return dialer.DialContext(ctx, network, ln.Addr().String())
			},
		},
	}
	b.ReportAllocs()
	base := "https://portal00.sim"
	do := func(method, path string, form url.Values) int {
		var resp *http.Response
		var err error
		if method == "GET" {
			resp, err = browser.Get(base + path)
		} else {
			resp, err = browser.PostForm(base+path, form)
		}
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do("POST", "/api/login", url.Values{
			"username": {d.UserNames[0]}, "passphrase": {d.Passphrase}, "lifetime": {"1h"},
		}); code != http.StatusOK {
			b.Fatalf("login status %d", code)
		}
		if code := do("POST", "/api/submit", url.Values{
			"executable": {"echo"}, "args": {"bench"},
		}); code != http.StatusOK {
			b.Fatalf("submit status %d", code)
		}
		if code := do("POST", "/api/logout", nil); code != http.StatusOK {
			b.Fatalf("logout status %d", code)
		}
	}
}

// BenchmarkScalabilityPortalsPerRepo drives concurrent portals against one
// repository (paper §3.3 / E4: "multiple portals should be able to use a
// single system").
func BenchmarkScalabilityPortalsPerRepo(b *testing.B) {
	for _, portals := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("portals=%d", portals), func(b *testing.B) {
			d := newWarmDeployment(b, sim.Config{Users: 2, Portals: portals})
			seed(b, d)
			ctx := context.Background()
			var next atomic.Int64
			b.ResetTimer()
			b.SetParallelism(portals)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					if _, err := d.Get(ctx, i%portals, i%len(d.Users), 0, time.Hour); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkScalabilityReposPerPortal spreads one portal's load across
// multiple repositories (paper §3.3 / E4: "a portal should be able to use
// multiple systems").
func BenchmarkScalabilityReposPerPortal(b *testing.B) {
	for _, repos := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("repos=%d", repos), func(b *testing.B) {
			d := newWarmDeployment(b, sim.Config{Users: 2, Portals: 1, Repos: repos})
			seed(b, d)
			ctx := context.Background()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					if _, err := d.Get(ctx, 0, i%len(d.Users), i%repos, time.Hour); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkCredstoreSealUnseal sweeps the sealing KDF cost — the
// brute-force defense of paper §5.1 (E5). One iteration = one seal + one
// unseal of a demo-sized RSA key.
func BenchmarkCredstoreSealUnseal(b *testing.B) {
	key, err := pki.GenerateKey(pki.DemoKeyBits)
	if err != nil {
		b.Fatal(err)
	}
	pass := []byte("bench pass phrase")
	for _, iter := range []int{1024, 16384, 65536} {
		b.Run(fmt.Sprintf("kdf-iter=%d", iter), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sealed, _, err := pki.EncryptKeyPEM(key, pass, iter)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pki.DecryptKeyPEM(sealed, pass); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDelegationChain sweeps verification cost against delegation
// depth (paper §2.4 chaining / E7), for both proxy styles — the legacy
// CN=proxy discipline the 2001 deployment used and the RFC 3820 extension.
func BenchmarkDelegationChain(b *testing.B) {
	d := newDeployment(b, sim.Config{Users: 1})
	for _, style := range []struct {
		name string
		typ  proxy.Type
	}{
		{"rfc3820", proxy.RFC3820},
		{"legacy", proxy.Legacy},
	} {
		cred := d.Users[0]
		for depth := 1; depth <= 6; depth++ {
			var err error
			cred, err = proxy.New(cred, proxy.Options{Type: style.typ, Lifetime: time.Hour, KeyBits: pki.DemoKeyBits})
			if err != nil {
				b.Fatal(err)
			}
			chain := cred.CertChain()
			b.Run(fmt.Sprintf("style=%s/depth=%d", style.name, depth), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := proxy.Verify(chain, proxy.VerifyOptions{Roots: d.Roots}); err != nil {
						b.Fatal(err)
					}
				}
			})
			// Repeat verification of the same chain through the verify
			// cache — the steady state a repository sees when the same
			// portal chain returns thousands of times a day.
			b.Run(fmt.Sprintf("style=%s/depth=%d/cached", style.name, depth), func(b *testing.B) {
				b.ReportAllocs()
				vc := proxy.NewVerifyCache(0)
				if _, err := vc.Verify(chain, proxy.VerifyOptions{Roots: d.Roots}); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := vc.Verify(chain, proxy.VerifyOptions{Roots: d.Roots}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkProxyCreate compares proxy minting across styles, key sizes, and
// key algorithms (ablation: legacy vs RFC 3820, 1024 vs 2048 bits, RSA vs
// the modern curves; E8 substrate cost). The curve entries show what
// key-algorithm agility buys: RSA keygen dominates proxy minting, ECDSA and
// Ed25519 make it disappear.
func BenchmarkProxyCreate(b *testing.B) {
	d := newDeployment(b, sim.Config{Users: 1})
	for _, tc := range []struct {
		name string
		typ  proxy.Type
		alg  pki.KeyAlgorithm
		bits int
	}{
		{"legacy-1024", proxy.Legacy, pki.AlgRSA, pki.DemoKeyBits},
		{"rfc3820-1024", proxy.RFC3820, pki.AlgRSA, pki.DemoKeyBits},
		{"rfc3820-2048", proxy.RFC3820, pki.AlgRSA, pki.DefaultKeyBits},
		{"rfc3820-ecdsa-p256", proxy.RFC3820, pki.AlgECDSAP256, 0},
		{"rfc3820-ed25519", proxy.RFC3820, pki.AlgEd25519, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := proxy.New(d.Users[0], proxy.Options{
					Type: tc.typ, Lifetime: time.Hour, KeyAlgorithm: tc.alg, KeyBits: tc.bits,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestrictedVerify compares verification of inherit-all vs
// restricted proxies (paper §6.5 / E12): the policy intersection must not
// change the cost shape.
func BenchmarkRestrictedVerify(b *testing.B) {
	d := newDeployment(b, sim.Config{Users: 1})
	full, err := proxy.New(d.Users[0], proxy.Options{Lifetime: time.Hour, KeyBits: pki.DemoKeyBits})
	if err != nil {
		b.Fatal(err)
	}
	restricted, err := proxy.New(d.Users[0], proxy.Options{
		Type:          proxy.RFC3820Restricted,
		RestrictedOps: []string{proxy.OpFileRead, proxy.OpFileWrite},
		Lifetime:      time.Hour, KeyBits: pki.DemoKeyBits,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		chain []*x509.Certificate
	}{
		{"inherit-all", full.CertChain()},
		{"restricted", restricted.CertChain()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := proxy.Verify(tc.chain, proxy.VerifyOptions{Roots: d.Roots}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOTPVerify measures one-time-password verification — the per-
// login cost of the §6.3 replay fix (E9).
func BenchmarkOTPVerify(b *testing.B) {
	reg := otp.NewRegistry()
	secret := "bench otp secret"
	if err := reg.Register("u", otp.MD5, secret, "seed1", b.N+2); err != nil {
		b.Fatal(err)
	}
	// Precompute all responses outside the timer by walking the chain
	// once: responses are consumed highest sequence first.
	cur, err := otp.Compute(otp.MD5, secret, "seed1", 0)
	if err != nil {
		b.Fatal(err)
	}
	hexAt := make([]string, b.N+2) // hexAt[n] = H^n
	hexAt[0] = hex.EncodeToString(cur[:])
	for n := 1; n <= b.N+1; n++ {
		if cur, err = otp.Next(otp.MD5, cur); err != nil {
			b.Fatal(err)
		}
		hexAt[n] = hex.EncodeToString(cur[:])
	}
	responses := make([]string, b.N)
	for i := 0; i < b.N; i++ {
		responses[i] = hexAt[b.N+1-i]
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := reg.Verify("u", responses[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenewal measures one pass-phrase-less renewal round trip
// (paper §6.6 / E11).
func BenchmarkRenewal(b *testing.B) {
	d := newWarmDeployment(b, sim.Config{Users: 1})
	ctx := context.Background()
	if err := d.UserClient(0, 0).Put(ctx, core.PutOptions{
		Username: d.UserNames[0], Renewable: true, Lifetime: 24 * time.Hour,
	}); err != nil {
		b.Fatal(err)
	}
	jobProxy, err := d.UserProxy(0, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	client := &core.Client{
		Credential: jobProxy, Roots: d.Roots, Addr: d.RepoAddrs[0],
		ExpectedServer: "/C=US/O=Sim Grid/CN=myproxy*", KeyBits: pki.DemoKeyBits,
		KeySource: d.Keys(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Get(ctx, core.GetOptions{
			Username: d.UserNames[0], Renewal: true, Lifetime: time.Hour,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDelegation isolates the GSI substrate: one delegation
// exchange over an established channel (paper §2.4).
func BenchmarkWireDelegation(b *testing.B) {
	d := newDeployment(b, sim.Config{Users: 1, Portals: 1})
	// Build a raw channel between the user and the portal.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	opts := gsi.AuthOptions{Roots: d.Roots}
	type pair struct {
		srv *gsi.Conn
		err error
	}
	ch := make(chan pair, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			ch <- pair{nil, err}
			return
		}
		conn, err := gsi.Server(raw, d.Portals[0], opts)
		if err != nil {
			_ = raw.Close() // gsi.Server leaves raw open on handshake failure
		}
		ch <- pair{conn, err}
	}()
	cli, err := gsi.Dial(context.Background(), "tcp", ln.Addr().String(), d.Users[0], opts)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	srvSide := <-ch
	if srvSide.err != nil {
		b.Fatal(srvSide.err)
	}
	defer srvSide.srv.Close()
	cli.SetDeadline(time.Time{})
	srvSide.srv.SetDeadline(time.Time{})
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := gsi.Delegate(srvSide.srv, d.Portals[0], proxy.Options{Lifetime: time.Hour}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gsi.RequestDelegation(cli, pki.KeySpec{Bits: pki.DemoKeyBits}, d.Roots); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-errCh; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChannelEstablish measures one mutually authenticated GSI
// channel setup (TLS handshake + proxy-aware peer verification on both
// sides) — the fixed cost under every repository operation.
func BenchmarkChannelEstablish(b *testing.B) {
	d := newDeployment(b, sim.Config{Users: 1, Portals: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	opts := gsi.AuthOptions{Roots: d.Roots}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				conn, err := gsi.Server(raw, d.Portals[0], opts)
				if err != nil {
					return
				}
				conn.ReadMessage() // wait for close
				conn.Close()
			}(raw)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := gsi.Dial(context.Background(), "tcp", ln.Addr().String(), d.Users[0], opts)
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkKDF exposes the raw PBKDF2 cost at the production iteration
// count (supporting E5's table).
func BenchmarkKDF(b *testing.B) {
	pw, salt := []byte("pass phrase"), []byte("0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kdf.SHA256Key(pw, salt, pki.DefaultKDFIterations, 32)
	}
}
