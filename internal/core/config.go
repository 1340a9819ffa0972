// Package core implements the MyProxy online credential repository — the
// paper's primary contribution (§4): a repository server that accepts
// delegated proxy credentials (myproxy-init, Fig. 1), delegates short-lived
// proxies back to authorized clients (myproxy-get-delegation, Fig. 2), and
// the client library the CLI tools and the Grid portal build on (Fig. 3).
package core

import (
	"crypto/x509"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/credstore"
	"repro/internal/otp"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/proxy"
)

// ServerConfig configures a repository server.
type ServerConfig struct {
	// Credential is the repository's host credential; clients mutually
	// authenticate the repository with it (paper §5.1).
	Credential *pki.Credential
	// Roots are the CA certificates the repository trusts for client
	// authentication.
	Roots *x509.CertPool
	// Store is the credential store; nil selects an in-memory store.
	Store credstore.Store

	// AcceptedCredentials lists DN patterns allowed to delegate or store
	// credentials (paper §5.1, "typically users"). Empty denies all.
	AcceptedCredentials *policy.ACL
	// AuthorizedRetrievers lists DN patterns allowed to request
	// delegations or retrieve credentials (paper §5.1, "typically
	// portals"). Empty denies all.
	AuthorizedRetrievers *policy.ACL
	// AuthorizedRenewers lists DN patterns allowed to renew renewable
	// credentials without a pass phrase (paper §6.6); renewal additionally
	// requires that the requester authenticate as the stored credential's
	// own identity. Empty denies all renewals.
	AuthorizedRenewers *policy.ACL

	// Passphrase is the pass-phrase quality policy applied at deposit time.
	Passphrase policy.PassphrasePolicy
	// Lifetimes bounds stored and delegated credential lifetimes.
	Lifetimes policy.LifetimePolicy

	// DelegationProxyType selects the proxy style for outgoing delegations
	// (GET); the zero value selects proxy.RFC3820. Incoming delegations
	// (PUT) are driven by the client.
	DelegationProxyType proxy.Type

	// KDFIterations tunes the sealing KDF; 0 selects
	// pki.DefaultKDFIterations. Experiment E5 sweeps this.
	KDFIterations int
	// MaxChainDepth bounds client proxy chains (0 = proxy.DefaultMaxDepth).
	MaxChainDepth int
	// RequestTimeout bounds one client session (0 = 30s).
	RequestTimeout time.Duration
	// MessageTimeout bounds each protocol message inside a session (the
	// slowloris guard): a client that stops making message-level progress
	// for this long is evicted, freeing its slot for live sessions. 0
	// selects RequestTimeout (one budget for the whole session).
	MessageTimeout time.Duration
	// MaxConcurrent caps simultaneously served connections; further
	// accepts wait for a free slot (backpressure) instead of piling up
	// goroutines. 0 = unlimited.
	MaxConcurrent int
	// DrainTimeout bounds Close's graceful drain: in-flight sessions get
	// this long to finish before being force-closed. 0 waits indefinitely.
	DrainTimeout time.Duration
	// SessionTimeout caps a multiplexed session's total lifetime (the
	// SESSION command): the connection is cut when it expires regardless of
	// stream progress. 0 selects 5 minutes.
	SessionTimeout time.Duration
	// DisableSessions refuses SESSION requests, forcing clients down the
	// one-exchange-per-connection path (legacy behavior; also how the
	// client's transparent downgrade is exercised in tests).
	DisableSessions bool
	// StatsFile, when non-empty, is where the server persists an
	// operation-counter snapshot (JSON) on shutdown and every
	// StatsFlushInterval, for offline inspection by myproxy-admin stats.
	StatsFile string
	// StatsFlushInterval is the periodic stats flush period when StatsFile
	// is set (0 = 30s).
	StatsFlushInterval time.Duration
	// PurgeInterval, when positive, sweeps expired credentials from the
	// store on this period (see credstore.PurgeExpired).
	PurgeInterval time.Duration
	// DelegationKeyAlgorithm selects the key algorithm the server generates
	// for imported (PUT) credentials when the client does not request one
	// (KEY_ALG); the zero value is RSA, the paper-fidelity default.
	DelegationKeyAlgorithm pki.KeyAlgorithm
	// DelegationKeyBits is the RSA key size the server generates for
	// imported (PUT) credentials; 0 selects pki.DefaultKeyBits. Ignored for
	// non-RSA algorithms.
	DelegationKeyBits int
	// KeySource, when non-nil, supplies pre-generated key pairs for
	// imported (PUT) credentials — typically a keypool.Pool sized by the
	// -keypool flag — taking RSA generation off the deposit path. nil
	// generates synchronously.
	KeySource proxy.KeySource
	// VerifyCache, when non-nil, memoizes client chain verifications so
	// repeat connections from the same portal skip the RSA chain walk;
	// nil lets NewServer build a default-sized cache. Revocation is
	// re-checked on every cache hit, and the cache is invalidated when
	// the revocation hook is replaced (Server.SetRevoked).
	VerifyCache *proxy.VerifyCache

	// OTP, when non-nil, holds one-time-password state per username
	// (paper §6.3). Users registered in it must answer the current OTP
	// challenge before GET/RETRIEVE, defeating pass-phrase replay (§5.1).
	OTP *otp.Registry

	// IsRevoked is an optional revocation hook for client chains.
	IsRevoked func(*x509.Certificate) bool

	// Logger receives audit lines; nil disables logging.
	Logger *log.Logger
	// Now is the clock (tests); nil selects time.Now.
	Now func() time.Time
}

func (c *ServerConfig) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *ServerConfig) logf(format string, args ...interface{}) {
	Audit(c.Logger, format, args...)
}

// Audit writes one event to an audit log as exactly one line: the event is
// formatted, then every control character and every byte that is not valid
// UTF-8 is written as its Go escape (\n, \x1b, \xff), whatever verb put it
// there. Peers choose much of what an event says — names, DNs, error texts
// — and none of it can start a second line or drive a terminal. Text that
// %q already escaped holds neither and passes through as it is. A nil
// logger disables logging. Every audit line of the repository, the gateway
// and the portal is written here.
func Audit(l *log.Logger, format string, args ...interface{}) {
	if l == nil {
		return
	}
	event := fmt.Sprintf(format, args...)
	var line strings.Builder
	for i := 0; i < len(event); {
		r, n := utf8.DecodeRuneInString(event[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			fmt.Fprintf(&line, `\x%02x`, event[i])
		case unicode.IsControl(r):
			q := strconv.QuoteRune(r)
			line.WriteString(q[1 : len(q)-1])
		default:
			line.WriteString(event[i : i+n])
		}
		i += n
	}
	l.Print(line.String())
}
