package gsi

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/proxy"
)

// AuthOptions configures peer authentication for a GSI channel.
type AuthOptions struct {
	// Roots are the trusted CA certificates; required.
	Roots *x509.CertPool
	// IsRevoked is an optional revocation hook applied to every peer
	// certificate.
	IsRevoked func(*x509.Certificate) bool
	// ExpectedPeer, when non-empty, is a DN pattern (policy.MatchDN syntax)
	// the authenticated peer identity must satisfy. Clients use this to
	// authenticate the repository and defeat impersonation (paper §5.1:
	// "MyProxy clients also require mutual authentication of the
	// repository").
	ExpectedPeer string
	// HandshakeTimeout bounds the TLS handshake (0 = DefaultTimeout).
	HandshakeTimeout time.Duration
	// Cache, when non-nil, memoizes peer chain verifications (see
	// proxy.VerifyCache). Revocation is re-checked on every hit, so a CRL
	// reload takes effect on the next connection regardless of caching.
	Cache *proxy.VerifyCache
	// TLSConfig, when non-nil, is a shared TLS configuration built by
	// NewClientTLSConfig or NewServerTLSConfig. Sharing one config across
	// connections is what makes session resumption work: the server's
	// ticket keys and the client's session cache live in the config. nil
	// builds a fresh per-connection config (no resumption).
	TLSConfig *tls.Config
}

// Channel is one authenticated message pipe: either a whole connection
// (*Conn) or one stream of a multiplexed session (*Stream). Delegation and
// the MyProxy protocol handlers speak Channel, so a protocol exchange is
// written once and runs unchanged over both transports.
type Channel interface {
	// WriteMessage sends one framed message.
	WriteMessage(payload []byte) error
	// ReadMessage receives one framed message. The payload is raw peer
	// input.
	ReadMessage() ([]byte, error)
	// LocalCredential reports the credential this side authenticated with.
	LocalCredential() *pki.Credential
	// PeerIdentity reports the authenticated Grid identity of the remote
	// side.
	PeerIdentity() string
	// RemoteAddr reports the remote network address.
	RemoteAddr() net.Addr
}

// Conn is a mutually authenticated GSI channel. All payloads are protected
// by TLS (the paper's §2.2/§5.1 confidentiality and integrity requirement)
// and exchanged as length-framed messages.
type Conn struct {
	tls *tls.Conn
	// Peer describes the authenticated remote identity: the verified proxy
	// chain result, including the Grid identity and any proxy attributes.
	Peer *proxy.Result
	// Local is the credential this side authenticated with.
	Local *pki.Credential
	// Resumed reports whether the TLS layer resumed a previous session
	// (abbreviated handshake). Peer verification ran either way.
	Resumed bool

	maxFrame int

	// msgTimeout, when positive, gives every message read/write its own
	// deadline (slowloris guard); sessionDeadline, when set, caps the whole
	// exchange regardless of per-message progress.
	msgTimeout      time.Duration
	sessionDeadline time.Time

	// auth is what the peer was authenticated under, kept for Reverify.
	auth AuthOptions
	// timeout is the per-use budget of a dialed connection (see Dialer);
	// stop, when non-nil, detaches it from the context it was dialed under.
	timeout time.Duration
	stop    func() bool
	// draining, on a connection an Acceptor serves, is closed when that
	// acceptor begins to close (see Session.Accept).
	draining <-chan struct{}
}

// tlsCertificate assembles the TLS leaf+chain from a Grid credential. The
// private key is the leaf's (typically a proxy's) key.
func tlsCertificate(cred *pki.Credential) (tls.Certificate, error) {
	if cred == nil || cred.Certificate == nil || cred.PrivateKey == nil {
		return tls.Certificate{}, errors.New("gsi: incomplete credential")
	}
	tc := tls.Certificate{PrivateKey: cred.PrivateKey, Leaf: cred.Certificate}
	for _, c := range cred.CertChain() {
		tc.Certificate = append(tc.Certificate, c.Raw)
	}
	return tc, nil
}

// baseTLSConfig builds the shared pieces of client and server configs.
// All certificate verification is disabled at the TLS layer and performed
// by authenticatePeer immediately after the handshake, because the standard
// verifier cannot walk proxy chains.
func baseTLSConfig(cred *pki.Credential) (*tls.Config, error) {
	tc, err := tlsCertificate(cred)
	if err != nil {
		return nil, err
	}
	return &tls.Config{
		Certificates: []tls.Certificate{tc},
		MinVersion:   tls.VersionTLS12,
		// Peer chains are validated by proxy.Verify after the handshake.
		InsecureSkipVerify: true,
		ClientAuth:         tls.RequireAnyClientCert,
	}, nil
}

// NewClientTLSConfig builds a TLS configuration for the initiating side of
// GSI channels, shared across connections so sessions resume. sessions,
// when non-nil, caches session tickets per destination (the standard
// library keys the cache by server address when no ServerName is set), so
// a portal's second and later connections to the same repository skip the
// full handshake's RSA exchange. Resumption changes nothing above the
// transport: authenticatePeer re-verifies the peer chain on every
// connection, resumed or not.
func NewClientTLSConfig(cred *pki.Credential, sessions tls.ClientSessionCache) (*tls.Config, error) {
	cfg, err := baseTLSConfig(cred)
	if err != nil {
		return nil, err
	}
	cfg.ClientSessionCache = sessions
	return cfg, nil
}

// NewServerTLSConfig builds a TLS configuration for the accepting side of
// GSI channels. Reuse one config for all connections of a listener: the
// automatically rotated session ticket keys live in the config, so
// per-connection configs silently disable resumption.
func NewServerTLSConfig(cred *pki.Credential) (*tls.Config, error) {
	return baseTLSConfig(cred)
}

// authenticatePeer validates the peer chain from the completed handshake.
func authenticatePeer(tc *tls.Conn, opts AuthOptions) (*proxy.Result, error) {
	if opts.Roots == nil {
		return nil, errors.New("gsi: AuthOptions.Roots is required")
	}
	state := tc.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		return nil, errors.New("gsi: peer presented no certificates")
	}
	// A resumed TLS session restores the peer chain from the session state
	// rather than re-transmitting it; either way the chain is re-verified
	// here on every connection (opts.Cache only makes the re-verification
	// cheap, it never skips revocation).
	res, err := opts.Cache.Verify(state.PeerCertificates, proxy.VerifyOptions{
		Roots:     opts.Roots,
		IsRevoked: opts.IsRevoked,
	})
	if err != nil {
		return nil, fmt.Errorf("gsi: peer chain: %w", err)
	}
	// The TLS layer has already proven possession of the leaf private key;
	// proxy.Verify proved the leaf chains to a trusted identity.
	if opts.ExpectedPeer != "" && !policy.MatchDN(opts.ExpectedPeer, res.IdentityString()) {
		return nil, fmt.Errorf("gsi: peer identity %q does not match expected %q",
			res.IdentityString(), opts.ExpectedPeer)
	}
	return res, nil
}

// DefaultTimeout bounds a handshake, an accepted session and one use of a
// dialed connection wherever the configured bound is left at zero.
const DefaultTimeout = 30 * time.Second

func orDefault(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultTimeout
	}
	return d
}

// Dial opens a GSI channel to addr, authenticating with cred and verifying
// the server per opts.
func Dial(ctx context.Context, network, addr string, cred *pki.Credential, opts AuthOptions) (*Conn, error) {
	var d net.Dialer
	raw, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("gsi: dial %s: %w", addr, err)
	}
	return Client(raw, cred, opts)
}

// Client wraps an established net.Conn as the initiating side of a GSI
// channel.
func Client(raw net.Conn, cred *pki.Credential, opts AuthOptions) (*Conn, error) {
	return handshake(raw, cred, opts, tls.Client)
}

// Server wraps an accepted net.Conn as the responding side of a GSI channel,
// requiring and verifying a client certificate chain.
func Server(raw net.Conn, cred *pki.Credential, opts AuthOptions) (*Conn, error) {
	return handshake(raw, cred, opts, tls.Server)
}

// handshake runs the TLS handshake in the given role under its timeout and
// authenticates the peer. On failure it closes raw — not the TLS conn, whose
// close_notify can block on a rejected peer that is not reading.
func handshake(raw net.Conn, cred *pki.Credential, opts AuthOptions, role func(net.Conn, *tls.Config) *tls.Conn) (conn *Conn, err error) {
	defer func() {
		if err != nil {
			_ = raw.Close() // already failing; close is best-effort
		}
	}()
	cfg := opts.TLSConfig
	if cfg == nil {
		if cfg, err = baseTLSConfig(cred); err != nil {
			return nil, err
		}
	}
	tc := role(raw, cfg)
	if err := tc.SetDeadline(time.Now().Add(orDefault(opts.HandshakeTimeout))); err != nil {
		return nil, err
	}
	if err := tc.Handshake(); err != nil {
		return nil, fmt.Errorf("gsi: handshake: %w", err)
	}
	if err := tc.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	peer, err := authenticatePeer(tc, opts)
	if err != nil {
		return nil, err
	}
	return &Conn{tls: tc, Peer: peer, Local: cred, Resumed: tc.ConnectionState().DidResume, maxFrame: DefaultMaxFrame, auth: opts}, nil
}

// SetMessageTimeout arms a per-message deadline: every subsequent
// WriteMessage/ReadMessage gets its own budget of d, so a peer must keep
// making message-level progress to hold the connection (the slowloris
// guard). d <= 0 disarms it, restoring caller-managed deadlines.
func (c *Conn) SetMessageTimeout(d time.Duration) { c.msgTimeout = d }

// SetSessionDeadline caps the whole exchange at t: per-message deadlines
// never extend past it. The zero time removes the cap.
func (c *Conn) SetSessionDeadline(t time.Time) { c.sessionDeadline = t }

// armDeadline applies the per-message deadline, bounded by the session cap.
// A SetDeadline failure (closed connection) must not be swallowed: it would
// silently disarm the slowloris guard for the message that follows.
func (c *Conn) armDeadline() error {
	if c.msgTimeout <= 0 {
		return nil
	}
	dl := time.Now().Add(c.msgTimeout)
	if !c.sessionDeadline.IsZero() && c.sessionDeadline.Before(dl) {
		dl = c.sessionDeadline
	}
	return c.tls.SetDeadline(dl)
}

// WriteMessage sends one framed message over the channel.
func (c *Conn) WriteMessage(payload []byte) error {
	if err := c.armDeadline(); err != nil {
		return fmt.Errorf("gsi: arm write deadline: %w", err)
	}
	return WriteFrame(c.tls, payload)
}

// ReadMessage receives one framed message.
func (c *Conn) ReadMessage() ([]byte, error) {
	if err := c.armDeadline(); err != nil {
		return nil, fmt.Errorf("gsi: arm read deadline: %w", err)
	}
	return ReadFrame(c.tls, c.maxFrame)
}

// SetDeadline applies to all channel I/O.
func (c *Conn) SetDeadline(t time.Time) error { return c.tls.SetDeadline(t) }

// Close terminates the channel.
func (c *Conn) Close() error {
	if c.stop != nil {
		c.stop()
	}
	return c.tls.Close()
}

// Reverify re-runs peer verification on the chain presented at the
// handshake, under the options the connection was authenticated with: the
// verify cache keeps it cheap, the revocation hook is consulted afresh.
// Multiplexed sessions call it per stream so a revocation takes effect
// mid-session.
func (c *Conn) Reverify() error {
	_, err := authenticatePeer(c.tls, c.auth)
	return err
}

// PeerIdentity returns the authenticated Grid identity of the remote side.
func (c *Conn) PeerIdentity() string { return c.Peer.IdentityString() }

// LocalCredential returns the credential this side authenticated with.
func (c *Conn) LocalCredential() *pki.Credential { return c.Local }

// RemoteAddr reports the remote network address.
func (c *Conn) RemoteAddr() net.Addr { return c.tls.RemoteAddr() }
