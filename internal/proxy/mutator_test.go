package proxy

import (
	"bytes"
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	mrand "math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/testpki"
)

// The chain mutator is the evidence that verifying a delegated chain in two
// halves — the issuer chain once, as an anchor, then each new leaf against
// it — decides what verifying the whole chain decides. It mints real
// chains with every field under its control, bends them the ways RFC 3820
// and RFC 5280 forbid (an expired link, a wrong issuer, a path-length
// overrun, limited then full, a proxy signing a CA, mixed styles, a
// duplicated ProxyCertInfo) and varies the options (clock, depth bound,
// roots, revocation). For every chain:
//
//   - the one-shot Verify, VerifyCache's anchored path on a cold cache, and
//     the anchored path on a cache that a sibling leaf of the same issuer
//     chain warmed first, agree on the verdict, the error text and the
//     Result;
//   - a chain bent in a way the RFCs forbid is refused, and an unbent one
//     verifies to what was minted;
//   - a chain with no proxy in it is refused exactly when crypto/x509
//     refuses it, with its error.

// mutatorSeeds are the seeds tier-1 runs. Each further run of the test in
// one process (go test -count=N, as make stress does) takes the next block
// of seeds, so a longer run covers more chains, and a failure names its
// seed.
var (
	mutatorSeeds = []int64{1, 2, 3}
	mutatorRuns  atomic.Int64
)

const chainsPerSeed = 100

// seeded draws the mutator's choices. It must be math/rand: a seed has to
// name its chains.
type seeded = mrand.Rand //myproxy:allow weakrand seeded test input; reproducibility requires math/rand, no key material

func TestChainMutator(t *testing.T) {
	f := newMutFixture(t)
	run := mutatorRuns.Add(1) - 1
	var chains, warmHits int
	for _, base := range mutatorSeeds {
		seed := base + run*int64(len(mutatorSeeds))
		rng := mrand.New(mrand.NewSource(seed)) //myproxy:allow weakrand seeded test input, as above
		for i := 0; i < chainsPerSeed; i++ {
			c := f.bend(t, rng)
			label := fmt.Sprintf("seed %d chain %d (%s)", seed, i, c.what)
			if f.check(t, rng, c, label) {
				warmHits++
			}
			chains++
		}
	}
	// Most bent chains still carry a valid issuer chain; if the warm path
	// never hit, the property above was vacuous.
	if warmHits < chains/5 {
		t.Errorf("only %d of %d chains took the warm anchored path", warmHits, chains)
	}
}

// mutFixture holds what every chain is minted from.
type mutFixture struct {
	now   time.Time
	alice *pki.Credential // every chain's end entity
	bob   *pki.Credential // a second user: wrong issuers, junk intermediates
	// rogueEEC is alice's subject and key, certified by a CA only
	// rogueRoots trusts.
	rogueEEC                     *x509.Certificate
	roots, rogueRoots, bothRoots *x509.CertPool
}

func newMutFixture(t *testing.T) *mutFixture {
	t.Helper()
	f := &mutFixture{
		now:   time.Now(),
		alice: testpki.User(t, "mutator-alice"),
		bob:   testpki.User(t, "mutator-bob"),
	}
	rogue, err := pki.NewCA(pki.CAConfig{Name: pki.MustParseDN("/CN=Mutator Rogue CA"), Key: testpki.Key(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := f.alice.SubjectDN()
	if err != nil {
		t.Fatal(err)
	}
	if f.rogueEEC, err = rogue.Issue(pki.IssueRequest{Subject: dn, PublicKey: f.alice.PrivateKey.Public()}); err != nil {
		t.Fatal(err)
	}
	ca := testpki.CA(t).Certificate()
	f.roots = testpki.PoolOf(ca)
	f.rogueRoots = testpki.PoolOf(rogue.Certificate())
	f.bothRoots = testpki.PoolOf(ca, rogue.Certificate())
	return f
}

// link is one minted certificate: its DER, and the subject and key it
// signs its children with.
type link struct {
	der     []byte
	subject []byte
	key     crypto.Signer
}

// level describes one proxy to mint.
type level struct {
	legacy  bool
	limited bool
	policy  asn1.ObjectIdentifier // RFC 3820 only; limited overrides it
	ops     []string              // restricted-operations policy body
	pathLen int                   // RFC 3820 only; Unlimited or a bound

	notBefore, notAfter time.Time

	ca            bool // asserts basicConstraints CA
	plain         bool // carries no proxy marker: no ProxyCertInfo, no proxy CN
	dupInfo       bool // carries ProxyCertInfo twice
	badSignature  bool // its signature does not verify
	foreignIssuer bool // signed by bob, under bob's name
}

// rfc reports whether the proxy is minted in the RFC 3820 style: a
// duplicated ProxyCertInfo needs one to duplicate.
func (l level) rfc() bool { return !l.legacy || l.dupInfo }

// bent is a minted chain, leaf first, and how to verify it.
type bent struct {
	links []link
	opts  VerifyOptions
	what  string // the mutations applied, for failure messages
	// valid is the RFC 3820/5280 verdict on the chain, worked out from what
	// was minted; want is the Result it must then verify to.
	valid bool
	want  Result
}

// bend mints one chain of zero to three proxies, with zero to two chain
// mutations and zero or more option mutations.
func (f *mutFixture) bend(t *testing.T, rng *seeded) bent {
	t.Helper()
	k := rng.Intn(4)
	legacy := rng.Intn(2) == 0
	levels := make([]level, k) // levels[0] is signed by the EEC, levels[k-1] is the leaf
	limited := false
	for i := range levels {
		l := &levels[i]
		l.legacy = legacy
		l.pathLen = Unlimited
		l.policy = OIDPolicyInheritAll
		l.notBefore, l.notAfter = f.now.Add(-5*time.Minute), f.now.Add(time.Hour)
		limited = limited || rng.Intn(5) == 0
		l.limited = limited
		if !legacy {
			switch rng.Intn(6) {
			case 0:
				l.policy = OIDPolicyIndependent
			case 1:
				l.policy = OIDPolicyRestrictedOps
				l.ops = [][]string{{OpFileRead}, {OpFileRead, OpJobSubmit}, {OpJobSubmit, OpFileWrite}}[rng.Intn(3)]
			}
			if rng.Intn(4) == 0 {
				l.pathLen = k - 1 - i + rng.Intn(2) // within budget
			}
		}
	}
	var what []string
	for n := rng.Intn(3); n > 0 && k > 0; n-- {
		j := rng.Intn(k)
		l := &levels[j]
		switch rng.Intn(8) {
		case 0:
			if rng.Intn(2) == 0 {
				l.notAfter = f.now.Add(-time.Minute)
			} else {
				l.notBefore = f.now.Add(10 * time.Minute)
			}
			what = append(what, fmt.Sprintf("expired link %d", j))
		case 1:
			l.badSignature = true
			what = append(what, fmt.Sprintf("bad signature at %d", j))
		case 2:
			l.foreignIssuer = true
			what = append(what, fmt.Sprintf("foreign issuer at %d", j))
		case 3:
			// below == 1 is the overrun only the leaf makes.
			if below := k - 1 - j; below > 0 {
				l.legacy = false
				l.pathLen = rng.Intn(below)
				what = append(what, fmt.Sprintf("path length %d over %d below at %d", l.pathLen, below, j))
			}
		case 4:
			if j < k-1 {
				l.limited = true
				levels[j+1+rng.Intn(k-1-j)].limited = false
				what = append(what, fmt.Sprintf("limited at %d then full", j))
			}
		case 5:
			l.ca = true
			l.plain = rng.Intn(2) == 0
			what = append(what, fmt.Sprintf("CA at %d (plain %v)", j, l.plain))
		case 6:
			l.legacy = !l.legacy
			what = append(what, fmt.Sprintf("style flipped at %d", j))
		case 7:
			l.legacy = false
			l.dupInfo = true
			what = append(what, fmt.Sprintf("duplicated ProxyCertInfo at %d", j))
		}
	}

	eec := link{der: f.alice.Certificate.Raw, subject: f.alice.Certificate.RawSubject, key: f.alice.PrivateKey}
	eecCert := f.alice.Certificate
	if rng.Intn(10) == 0 {
		eec.der, eecCert = f.rogueEEC.Raw, f.rogueEEC
		what = append(what, "EEC from the rogue CA")
	}
	chain := []link{eec}
	for _, l := range levels {
		chain = append(chain, f.mint(t, rng, chain[len(chain)-1], l))
	}
	slices.Reverse(chain)
	if rng.Intn(8) == 0 {
		chain = append(chain, link{der: f.bob.Certificate.Raw})
		what = append(what, "junk intermediate")
	}

	c := bent{links: chain, opts: VerifyOptions{Roots: f.roots, CurrentTime: f.now}}
	switch rng.Intn(10) {
	case 0:
		c.opts.CurrentTime = f.now.Add(2 * time.Hour)
		what = append(what, "clock +2h")
	case 1:
		c.opts.CurrentTime = f.now.Add(-10 * time.Minute)
		what = append(what, "clock -10m")
	}
	if rng.Intn(8) == 0 {
		c.opts.MaxDepth = 1 + rng.Intn(3)
		what = append(what, fmt.Sprintf("depth bound %d", c.opts.MaxDepth))
	}
	switch rng.Intn(10) {
	case 0:
		c.opts.Roots = f.rogueRoots
		what = append(what, "rogue roots")
	case 1:
		c.opts.Roots = f.bothRoots
		what = append(what, "both roots")
	}
	revoked := false
	if rng.Intn(8) == 0 {
		victim := chain[rng.Intn(len(chain))].der
		c.opts.IsRevoked = func(cert *x509.Certificate) bool { return bytes.Equal(cert.Raw, victim) }
		revoked = true
		what = append(what, "revoked")
	}
	c.what = strings.Join(what, ", ")

	trusted := c.opts.Roots == f.bothRoots || (c.opts.Roots == f.rogueRoots) == (eecCert == f.rogueEEC)
	at := c.opts.CurrentTime
	c.valid = trusted && !revoked && !at.Before(eecCert.NotBefore) && !at.After(eecCert.NotAfter) &&
		(c.opts.MaxDepth == 0 || k <= c.opts.MaxDepth)
	c.want = Result{Depth: k}
	for i, l := range levels {
		c.valid = c.valid && !l.ca && !l.dupInfo && !l.badSignature && !l.foreignIssuer &&
			!at.Before(l.notBefore) && !at.After(l.notAfter) &&
			l.rfc() == levels[0].rfc() && // one style
			(!c.want.Limited || l.limited) && // limitation is sticky
			(!l.rfc() || l.pathLen < 0 || k-1-i <= l.pathLen)
		switch {
		case l.limited:
			c.want.Limited = true
		case !l.rfc():
		case l.policy.Equal(OIDPolicyIndependent):
			c.want.Independent = true
		case l.policy.Equal(OIDPolicyRestrictedOps):
			if c.want.RestrictedOps == nil {
				c.want.RestrictedOps = slices.Clone(l.ops)
			} else {
				c.want.RestrictedOps = slices.DeleteFunc(c.want.RestrictedOps, func(op string) bool { return !slices.Contains(l.ops, op) })
			}
		}
	}
	return c
}

// mint signs a proxy as l describes under parent, with a fresh Ed25519 key.
func (f *mutFixture) mint(t *testing.T, rng *seeded, parent link, l level) link {
	t.Helper()
	_, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	serial := big.NewInt(rng.Int63())
	if l.foreignIssuer {
		parent = link{subject: f.bob.Certificate.RawSubject, key: f.bob.PrivateKey}
	}
	cn := serial.String()
	var exts []pkix.Extension
	switch {
	case l.plain:
		cn = "host " + cn
	case !l.rfc() && l.limited:
		cn = "limited proxy"
	case !l.rfc():
		cn = "proxy"
	default:
		ci := &CertInfo{PathLenConstraint: l.pathLen, PolicyLanguage: l.policy}
		if l.limited {
			ci.PolicyLanguage = OIDPolicyLimited
		} else if l.policy.Equal(OIDPolicyRestrictedOps) {
			ci.Policy = encodeOps(l.ops)
		}
		ext, err := ci.Extension()
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, ext)
		if l.dupInfo {
			exts = append(exts, ext)
		}
	}
	subject, ok := pki.AppendCN(parent.subject, cn)
	if !ok {
		t.Fatal("issuer subject is not in DN.Marshal form")
	}
	tmpl := &x509.Certificate{
		SerialNumber:          serial,
		RawSubject:            subject,
		NotBefore:             l.notBefore,
		NotAfter:              l.notAfter,
		KeyUsage:              x509.KeyUsageDigitalSignature,
		ExtraExtensions:       exts,
		BasicConstraintsValid: l.ca,
		IsCA:                  l.ca,
	}
	if l.ca {
		tmpl.KeyUsage |= x509.KeyUsageCertSign
	}
	issuer := &x509.Certificate{RawSubject: parent.subject, PublicKey: parent.key.Public()}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, issuer, key.Public(), parent.key)
	if err != nil {
		t.Fatal(err)
	}
	if l.badSignature {
		der[len(der)-1] ^= 0x01 // the signature's last byte
	}
	return link{der: der, subject: subject, key: key}
}

// outcome is what one path made of a chain.
type outcome struct {
	err string // the parse or verification error; "" on success
	res *Result
}

func (o outcome) String() string {
	if o.res == nil {
		return "error " + o.err
	}
	return fmt.Sprintf("%+v", *o.res)
}

func sameOutcome(a, b outcome) bool {
	if a.err != b.err || (a.res == nil) != (b.res == nil) {
		return false
	}
	if a.res == nil {
		return true
	}
	x, y := a.res, b.res
	return bytes.Equal(x.EEC.Raw, y.EEC.Raw) && x.Identity.Equal(y.Identity) && x.Depth == y.Depth &&
		x.Limited == y.Limited && x.Independent == y.Independent &&
		(x.RestrictedOps == nil) == (y.RestrictedOps == nil) && slices.Equal(x.RestrictedOps, y.RestrictedOps) &&
		(x.LeafInfo == nil) == (y.LeafInfo == nil) && (x.LeafInfo == nil || sameCertInfo(x.LeafInfo, y.LeafInfo))
}

func linkDERs(links []link) [][]byte {
	out := make([][]byte, len(links))
	for i, l := range links {
		out[i] = l.der
	}
	return out
}

// anchored runs the importer's path: parse through the cache, then verify
// through it.
func anchored(vc *VerifyCache, chain [][]byte, opts VerifyOptions) outcome {
	certs, err := vc.ParseDelegated(chain, opts)
	if err != nil {
		return outcome{err: err.Error()}
	}
	res, err := vc.VerifyDelegated(certs, opts)
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{res: res}
}

// check holds one bent chain to the properties above. It reports whether
// the warm path was an anchor hit.
func (f *mutFixture) check(t *testing.T, rng *seeded, c bent, label string) (warmHit bool) {
	t.Helper()
	chain := linkDERs(c.links)

	var once outcome
	certs, err := pki.ParseCerts(chain...)
	if err != nil {
		once.err = err.Error()
	} else if res, err := Verify(certs, c.opts); err != nil {
		once.err = err.Error()
	} else {
		once.res = res
	}

	cold := anchored(NewVerifyCache(0), chain, c.opts)

	// Warm: a sibling leaf, limited so that it is valid beneath any valid
	// issuer chain, files the anchor first (without the revocation hook,
	// which a hit must re-run).
	vc := NewVerifyCache(0)
	if len(c.links) > 1 && c.links[1].key != nil {
		signer := c.links[1]
		legacy := false
		if cert, err := x509.ParseCertificate(signer.der); err == nil && IsProxy(cert) {
			_, isRFC, _ := InfoFromCert(cert)
			legacy = !isRFC
		}
		t0 := c.opts.CurrentTime
		sibling := f.mint(t, rng, signer, level{
			legacy: legacy, limited: true, pathLen: Unlimited,
			notBefore: t0.Add(-5 * time.Minute), notAfter: t0.Add(time.Hour),
		})
		warmOpts := c.opts
		warmOpts.IsRevoked = nil
		anchored(vc, append([][]byte{sibling.der}, chain[1:]...), warmOpts)
	}
	hits := vc.AnchorHits()
	warm := anchored(vc, chain, c.opts)
	warmHit = vc.AnchorHits() > hits

	if !sameOutcome(once, cold) || !sameOutcome(once, warm) {
		t.Errorf("%s: paths disagree\n  one-shot: %v\n  cold:     %v\n  warm:     %v", label, once, cold, warm)
	}
	r, w := once.res, c.want
	switch {
	case !c.valid && r != nil:
		t.Errorf("%s: verified, want refused: %v", label, once)
	case c.valid && r == nil:
		t.Errorf("%s: refused, want verified: %s", label, once.err)
	case c.valid && (r.IdentityString() != f.alice.Subject() || r.Depth != w.Depth || r.Limited != w.Limited ||
		r.Independent != w.Independent || (r.RestrictedOps == nil) != (w.RestrictedOps == nil) ||
		!slices.Equal(r.RestrictedOps, w.RestrictedOps)):
		t.Errorf("%s: verified to %v, want %+v", label, once, w)
	}

	// Proxy-free chains: the verdict is crypto/x509's.
	if certs != nil && !slices.ContainsFunc(certs, IsProxy) {
		inter := testpki.PoolOf(certs[1:]...)
		_, xerr := certs[0].Verify(x509.VerifyOptions{
			Roots: c.opts.Roots, Intermediates: inter, CurrentTime: c.opts.CurrentTime,
			KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
		})
		revoked := c.opts.IsRevoked != nil && slices.ContainsFunc(certs, c.opts.IsRevoked)
		switch {
		case xerr != nil:
			if want := "proxy: end-entity verification: " + xerr.Error(); once.err != want {
				t.Errorf("%s: proxy-free chain: %q, crypto/x509 says %q", label, once.err, want)
			}
		case revoked:
			if !strings.Contains(once.err, "is revoked") {
				t.Errorf("%s: proxy-free chain with a revoked certificate: %v", label, once)
			}
		case once.res == nil || once.res.Depth != 0:
			t.Errorf("%s: proxy-free chain crypto/x509 accepts: %v", label, once)
		}
	}
	return warmHit
}
