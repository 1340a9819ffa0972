package core

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/gsi"
	"repro/internal/otp"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/resilience"
)

// Client talks to a MyProxy repository. It is the library under the
// myproxy-* command-line tools and the Grid portal (paper §4.4 describes the
// equivalent C and Java client APIs).
//
// Failure semantics: with a Retry policy configured, transient transport
// faults (refused connections, handshake resets, dropped reads) are retried
// with backoff. Idempotent operations — Get, Info, Retrieve — retry through
// any transport fault. Mutations — Put, Store, Destroy, ChangePassphrase —
// retry only faults that provably precede the commit point; a fault after
// the request may have committed surfaces as *resilience.AmbiguousError
// instead of being blindly replayed (replaying a DESTROY after a lost
// confirmation would report a spurious "not found"; replaying a PUT could
// overwrite a newer deposit). Definitive server verdicts (authorization
// failures, bad pass phrases, policy rejections) are never retried.
type Client struct {
	// Credential authenticates the client: the user's proxy for
	// myproxy-init, the portal's host credential for
	// myproxy-get-delegation (paper §4.3 step 2).
	Credential *pki.Credential
	// Roots are the trusted CAs for authenticating the repository.
	Roots *x509.CertPool
	// Addr is the repository's network address.
	Addr string
	// ExpectedServer optionally pins the repository identity (DN pattern);
	// strongly recommended (paper §5.1 mutual authentication).
	ExpectedServer string
	// KeyAlgorithm selects the algorithm for keys generated for incoming
	// delegations (and, via KEY_ALG, requested of the server for PUT); the
	// zero value is RSA, the paper-fidelity default.
	KeyAlgorithm pki.KeyAlgorithm
	// KeyBits sizes RSA keys generated for incoming delegations; 0 selects
	// pki.DefaultKeyBits. Ignored for non-RSA algorithms.
	KeyBits int
	// KeySource, when non-nil, supplies delegation key pairs (typically a
	// keypool.Pool shared across clients), taking RSA generation off the
	// request path. nil generates synchronously.
	KeySource proxy.KeySource
	// ProxyType selects the style of proxy delegated *to* the repository
	// by Put; the zero value selects proxy.RFC3820.
	ProxyType proxy.Type
	// Timeout bounds one attempt on a connection of its own and, on a
	// Session, the dial and then each message of a stream (0 = 30s).
	Timeout time.Duration
	// DialContext optionally overrides the transport dialer (tests,
	// simulation rigs, fault injection).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
	// Retry governs automatic retries of transient failures; the zero
	// value performs exactly one attempt.
	Retry resilience.Policy
	// Stats, when non-nil, receives the client-side resilience counters
	// (Retries, Ambiguous); share one Stats across clients to aggregate.
	Stats *Stats

	// dialer is the GSI endpoint every operation dials through, built from
	// the fields above on first use; its TLS session cache and chain
	// verification cache are what make a long-lived Client's repeat
	// connections cheap.
	dialOnce sync.Once
	dialer   *gsi.Dialer
}

// keySpec assembles the delegation key spec from the client's settings.
func (c *Client) keySpec() pki.KeySpec {
	return pki.KeySpec{Algorithm: c.KeyAlgorithm, Bits: c.KeyBits}
}

// wireKeyAlg is the KEY_ALG request value: empty for RSA (legacy servers
// get a byte-identical request), the algorithm name otherwise.
func (c *Client) wireKeyAlg() string {
	if c.KeyAlgorithm == pki.AlgRSA {
		return ""
	}
	return c.KeyAlgorithm.String()
}

// ErrOTPRequired is returned (wrapped) when the repository demands a
// one-time password; the Challenge field carries the server's challenge.
type ErrOTPRequired struct{ Challenge string }

func (e *ErrOTPRequired) Error() string {
	return fmt.Sprintf("myproxy server requires one-time password (challenge %q)", e.Challenge)
}

// do runs one operation attempt function under the retry policy, wiring the
// client's counters into the policy's observer.
func (c *Client) do(ctx context.Context, fn func(ctx context.Context) error) error {
	pol := c.Retry
	prev := pol.OnRetry
	pol.OnRetry = func(attempt int, err error, backoff time.Duration) {
		if c.Stats != nil {
			c.Stats.Retries.Add(1)
		}
		if prev != nil {
			prev(attempt, err, backoff)
		}
	}
	err := pol.Do(ctx, fn)
	if err != nil && c.Stats != nil && resilience.IsAmbiguous(err) {
		c.Stats.Ambiguous.Add(1)
	}
	return err
}

// operations is the protocol's seven operations, each written once, over
// channels from one source: via runs fn on an authenticated channel under the
// client's retry policy. Client.exchange dials a connection per attempt and
// closes it; Session.exchange opens a stream of the connection it holds and
// releases it. Nothing else differs between the two.
type operations struct {
	c   *Client
	via func(ctx context.Context, fn func(gsi.Channel) error) error
}

// exchange runs fn on a fresh authenticated connection, under the retry
// policy.
func (c *Client) exchange(ctx context.Context, fn func(gsi.Channel) error) error {
	return c.do(ctx, func(ctx context.Context) error { return c.dialed(ctx, fn) })
}

// dialed is one attempt of exchange: dial, run fn, close.
func (c *Client) dialed(ctx context.Context, fn func(gsi.Channel) error) error {
	conn, err := c.connect(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	return fn(conn)
}

// answering runs op and, when the server demands a one-time password the
// caller left to secret (§6.3), computes the response into *answer and runs
// op once more.
func answering(answer *string, secret string, op func() error) error {
	err := op()
	var otpErr *ErrOTPRequired
	if secret == "" || *answer != "" || !errors.As(err, &otpErr) {
		return err
	}
	resp, rerr := otp.Respond(otpErr.Challenge, secret)
	if rerr != nil {
		return rerr
	}
	*answer = resp
	return op()
}

// ambiguous marks a transport fault in a mutation's commit window, leaving
// definitive server verdicts (already Permanent) untouched.
func ambiguous(op string, err error) error {
	if err == nil || resilience.IsPermanent(err) {
		return err
	}
	return resilience.Ambiguous(op, err)
}

// connect dials the repository for one attempt: the whole operation — not
// just the dial — runs under the attempt timeout and ctx (gsi.Dialer).
func (c *Client) connect(ctx context.Context) (*gsi.Conn, error) {
	if c.Credential == nil {
		return nil, resilience.Permanent(errors.New("core: client requires a credential"))
	}
	if c.Roots == nil {
		return nil, resilience.Permanent(errors.New("core: client requires trust roots"))
	}
	c.dialOnce.Do(func() {
		c.dialer = &gsi.Dialer{
			Credential:   c.Credential,
			Roots:        c.Roots,
			Addr:         c.Addr,
			ExpectedPeer: c.ExpectedServer,
			Timeout:      c.Timeout,
			DialContext:  c.DialContext,
		}
	})
	return c.dialer.Dial(ctx)
}

// roundTrip sends req and reads the server's verdict. Server-side verdicts
// (error responses, OTP challenges) are Permanent — retrying cannot change
// them. Transport faults while *reading* the response are ambiguous for
// mutations (commitOp != ""): the server saw the request and may have
// committed before the confirmation was lost.
func (c *Client) roundTrip(conn gsi.Channel, req *protocol.Request, commitOp string) (*protocol.Response, error) {
	data, err := protocol.MarshalRequest(req)
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	if err := conn.WriteMessage(data); err != nil {
		return nil, err
	}
	respData, err := conn.ReadMessage()
	if err != nil {
		err = fmt.Errorf("core: read response: %w", err)
		if commitOp != "" {
			return nil, resilience.Ambiguous(commitOp, err)
		}
		return nil, err
	}
	resp, err := protocol.ParseResponse(respData)
	if err != nil {
		if commitOp != "" {
			return nil, resilience.Ambiguous(commitOp, err)
		}
		return nil, err
	}
	if resp.Code == protocol.RespAuthRequired {
		return nil, resilience.Permanent(&ErrOTPRequired{Challenge: resp.Challenge})
	}
	if rerr := resp.Err(); rerr != nil {
		return resp, resilience.Permanent(rerr)
	}
	return resp, nil
}

// readFinal consumes the post-delegation confirmation.
func (c *Client) readFinal(conn gsi.Channel) error {
	respData, err := conn.ReadMessage()
	if err != nil {
		return fmt.Errorf("core: read final response: %w", err)
	}
	resp, err := protocol.ParseResponse(respData)
	if err != nil {
		return err
	}
	if rerr := resp.Err(); rerr != nil {
		return resilience.Permanent(rerr)
	}
	return nil
}

// PutOptions parameterizes Put (myproxy-init, paper Fig. 1).
type PutOptions struct {
	Username   string
	Passphrase string
	// Lifetime of the credential delegated to the repository; 0 selects
	// the one-week default (paper §4.1).
	Lifetime time.Duration
	// CredName names the credential (wallet, §6.2); empty = default.
	CredName    string
	Description string
	// Retrievers narrows which DNs may later retrieve this credential.
	Retrievers string
	// MaxDelegation caps proxies the repository may delegate from this
	// credential (the §4.1 retrieval restriction).
	MaxDelegation time.Duration
	// TaskTags label the credential for wallet selection (§6.2).
	TaskTags []string
	// Renewable deposits the credential without a pass phrase so that
	// authorized renewers can refresh long-running jobs (paper §6.6);
	// Passphrase must be empty.
	Renewable bool
}

// Put delegates a proxy of the client's credential to the repository under
// (Username, Passphrase): the myproxy-init operation of paper Figure 1.
// Failures before the delegation starts are retried under the Retry policy;
// once the delegation is in flight the deposit may commit server-side, so
// later faults surface as *resilience.AmbiguousError.
func (c *Client) Put(ctx context.Context, opts PutOptions) error {
	return operations{c, c.exchange}.Put(ctx, opts)
}

// Put is Client.Put over o's channels.
func (o operations) Put(ctx context.Context, opts PutOptions) error {
	lifetime := opts.Lifetime
	if lifetime <= 0 {
		lifetime = 7 * 24 * time.Hour
	}
	return o.via(ctx, func(ch gsi.Channel) error {
		return o.c.putOn(ch, opts, lifetime)
	})
}

func (c *Client) putOn(conn gsi.Channel, opts PutOptions, lifetime time.Duration) error {
	req := &protocol.Request{
		Command:       protocol.CmdPut,
		Username:      opts.Username,
		Passphrase:    opts.Passphrase,
		Lifetime:      lifetime,
		CredName:      opts.CredName,
		Description:   opts.Description,
		Retrievers:    opts.Retrievers,
		MaxDelegation: opts.MaxDelegation,
		TaskTags:      opts.TaskTags,
		Renewable:     opts.Renewable,
		KeyAlg:        c.wireKeyAlg(),
	}
	// The first response precedes any server-side state change: failures
	// up to here are retry-safe.
	if _, err := c.roundTrip(conn, req, ""); err != nil {
		return err
	}
	// Commit window: the server stores the credential when the delegation
	// completes, so a fault from here on leaves the outcome unknown.
	if _, err := gsi.Delegate(conn, c.Credential, proxy.Options{
		Type:     c.ProxyType,
		Lifetime: lifetime,
	}); err != nil {
		return ambiguous("PUT", fmt.Errorf("core: delegate to repository: %w", err))
	}
	return ambiguous("PUT", c.readFinal(conn))
}

// GetOptions parameterizes Get (myproxy-get-delegation, paper Fig. 2).
type GetOptions struct {
	Username   string
	Passphrase string
	// Lifetime of the proxy requested back; 0 selects the server default
	// ("a few hours", paper §4.3).
	Lifetime time.Duration
	// CredName selects a named credential; TaskHint asks the wallet to
	// choose one (§6.2).
	CredName string
	TaskHint string
	// OTP answers a one-time-password challenge (§6.3). Leave empty on the
	// first attempt; if the server requires OTP, Get returns
	// *ErrOTPRequired carrying the challenge, or use OTPSecret to answer
	// automatically.
	OTP string
	// OTPSecret, when non-empty, computes OTP responses from the secret
	// pass phrase transparently on challenge.
	OTPSecret string
	// Renewal requests a pass-phrase-less renewal of a renewable
	// credential (paper §6.6); the client must authenticate with a proxy
	// of the stored credential's own identity.
	Renewal bool
}

// Get retrieves a delegated proxy credential from the repository: the
// myproxy-get-delegation operation of paper Figure 2. Get is idempotent and
// retries any transient fault under the Retry policy.
func (c *Client) Get(ctx context.Context, opts GetOptions) (*pki.Credential, error) {
	return operations{c, c.exchange}.Get(ctx, opts)
}

// Get is Client.Get over o's channels.
func (o operations) Get(ctx context.Context, opts GetOptions) (*pki.Credential, error) {
	var cred *pki.Credential
	err := answering(&opts.OTP, opts.OTPSecret, func() error {
		return o.via(ctx, func(ch gsi.Channel) (err error) {
			cred, err = o.c.getOn(ch, opts)
			return err
		})
	})
	return cred, err
}

// getOn runs one GET exchange on ch: a dedicated connection, or one stream
// of a session.
func (c *Client) getOn(ch gsi.Channel, opts GetOptions) (*pki.Credential, error) {
	req := &protocol.Request{
		Command:    protocol.CmdGet,
		Username:   opts.Username,
		Passphrase: opts.Passphrase,
		Lifetime:   opts.Lifetime,
		CredName:   opts.CredName,
		TaskHint:   opts.TaskHint,
		OTP:        opts.OTP,
		Renewal:    opts.Renewal,
	}
	if _, err := c.roundTrip(ch, req, ""); err != nil {
		return nil, err
	}
	cred, err := gsi.RequestDelegationFrom(ch, c.KeySource, c.keySpec(), c.Roots)
	if err != nil {
		return nil, fmt.Errorf("core: receive delegation: %w", err)
	}
	if err := c.readFinal(ch); err != nil {
		return nil, err
	}
	return cred, nil
}

// Info lists the credentials stored under username that the pass phrase
// authenticates (myproxy-info). Info is idempotent and retries transient
// faults.
func (c *Client) Info(ctx context.Context, username, passphrase string) ([]protocol.CredInfo, error) {
	return operations{c, c.exchange}.Info(ctx, username, passphrase)
}

// Info is Client.Info over o's channels.
func (o operations) Info(ctx context.Context, username, passphrase string) ([]protocol.CredInfo, error) {
	var infos []protocol.CredInfo
	err := o.via(ctx, func(ch gsi.Channel) (err error) {
		infos, err = o.c.infoOn(ch, username, passphrase)
		return err
	})
	return infos, err
}

func (c *Client) infoOn(ch gsi.Channel, username, passphrase string) ([]protocol.CredInfo, error) {
	resp, err := c.roundTrip(ch, &protocol.Request{
		Command: protocol.CmdInfo, Username: username, Passphrase: passphrase,
	}, "")
	if err != nil {
		return nil, err
	}
	return resp.Infos, nil
}

// Destroy removes a stored credential (myproxy-destroy, paper §4.1).
// Connection and request-send failures are retried; a fault after the
// request was delivered is ambiguous (the credential may already be gone)
// and surfaces as *resilience.AmbiguousError.
func (c *Client) Destroy(ctx context.Context, username, passphrase, credName string) error {
	return operations{c, c.exchange}.Destroy(ctx, username, passphrase, credName)
}

// Destroy is Client.Destroy over o's channels.
func (o operations) Destroy(ctx context.Context, username, passphrase, credName string) error {
	return o.via(ctx, func(ch gsi.Channel) error {
		return o.c.destroyOn(ch, username, passphrase, credName)
	})
}

func (c *Client) destroyOn(ch gsi.Channel, username, passphrase, credName string) error {
	_, err := c.roundTrip(ch, &protocol.Request{
		Command: protocol.CmdDestroy, Username: username, Passphrase: passphrase, CredName: credName,
	}, "DESTROY")
	return err
}

// ChangePassphrase re-seals a stored credential under a new pass phrase
// (myproxy-change-passphrase). Same commit semantics as Destroy: only
// pre-delivery faults retry.
func (c *Client) ChangePassphrase(ctx context.Context, username, oldPass, newPass, credName string) error {
	return operations{c, c.exchange}.ChangePassphrase(ctx, username, oldPass, newPass, credName)
}

// ChangePassphrase is Client.ChangePassphrase over o's channels.
func (o operations) ChangePassphrase(ctx context.Context, username, oldPass, newPass, credName string) error {
	return o.via(ctx, func(ch gsi.Channel) error {
		return o.c.changePassphraseOn(ch, username, oldPass, newPass, credName)
	})
}

func (c *Client) changePassphraseOn(ch gsi.Channel, username, oldPass, newPass, credName string) error {
	_, err := c.roundTrip(ch, &protocol.Request{
		Command: protocol.CmdChangePassphrase, Username: username,
		Passphrase: oldPass, NewPassphrase: newPass, CredName: credName,
	}, "CHANGE_PASSPHRASE")
	return err
}

// StoreOptions parameterizes Store (myproxy-store, paper §6.1).
type StoreOptions struct {
	Username   string
	Passphrase string
	CredName   string
	// Credential is the long-term credential to deposit. It is sealed
	// client-side under the pass phrase; the repository never sees the
	// plaintext private key.
	Credential  *pki.Credential
	Description string
	Retrievers  string
	TaskTags    []string
}

// Store seals a long-term credential client-side and deposits the opaque
// container in the repository (paper §6.1: "managing long-term Grid
// credentials on the user's behalf"). Failures before the sealed blob is
// sent are retried; afterwards the deposit may have committed and faults
// surface as *resilience.AmbiguousError.
func (c *Client) Store(ctx context.Context, opts StoreOptions) error {
	return operations{c, c.exchange}.Store(ctx, opts)
}

// Store is Client.Store over o's channels.
func (o operations) Store(ctx context.Context, opts StoreOptions) error {
	if opts.Credential == nil {
		return errors.New("core: Store requires a credential")
	}
	plainPEM := opts.Credential.EncodePEM()
	blob, err := pki.SealBytes(plainPEM, []byte(opts.Passphrase), 0)
	pki.WipeBytes(plainPEM) // sealed; drop the plaintext encoding
	if err != nil {
		return err
	}
	return o.via(ctx, func(ch gsi.Channel) error {
		return o.c.storeOn(ch, opts, blob)
	})
}

func (c *Client) storeOn(ch gsi.Channel, opts StoreOptions, blob []byte) error {
	req := &protocol.Request{
		Command:     protocol.CmdStore,
		Username:    opts.Username,
		Passphrase:  opts.Passphrase,
		CredName:    opts.CredName,
		Description: opts.Description,
		Retrievers:  opts.Retrievers,
		TaskTags:    opts.TaskTags,
	}
	if _, err := c.roundTrip(ch, req, ""); err != nil {
		return err
	}
	// Commit window: the server stores the blob when it arrives.
	if err := ch.WriteMessage(blob); err != nil {
		return ambiguous("STORE", err)
	}
	return ambiguous("STORE", c.readFinal(ch))
}

// RetrieveOptions parameterizes Retrieve (myproxy-retrieve, paper §6.1).
type RetrieveOptions struct {
	Username   string
	Passphrase string
	CredName   string
	TaskHint   string
	OTP        string
	OTPSecret  string
}

// Retrieve downloads and unseals a long-term credential deposited with
// Store. Unsealing happens client-side with the pass phrase. Retrieve is
// idempotent and retries any transient fault.
func (c *Client) Retrieve(ctx context.Context, opts RetrieveOptions) (*pki.Credential, error) {
	return operations{c, c.exchange}.Retrieve(ctx, opts)
}

// Retrieve is Client.Retrieve over o's channels.
func (o operations) Retrieve(ctx context.Context, opts RetrieveOptions) (*pki.Credential, error) {
	var cred *pki.Credential
	err := answering(&opts.OTP, opts.OTPSecret, func() error {
		return o.via(ctx, func(ch gsi.Channel) (err error) {
			cred, err = o.c.retrieveOn(ch, opts)
			return err
		})
	})
	return cred, err
}

func (c *Client) retrieveOn(conn gsi.Channel, opts RetrieveOptions) (*pki.Credential, error) {
	resp, err := c.roundTrip(conn, &protocol.Request{
		Command:    protocol.CmdRetrieve,
		Username:   opts.Username,
		Passphrase: opts.Passphrase,
		CredName:   opts.CredName,
		TaskHint:   opts.TaskHint,
		OTP:        opts.OTP,
	}, "")
	if err != nil {
		return nil, err
	}
	plain, err := pki.OpenBytes(resp.Blob, []byte(opts.Passphrase))
	if err != nil {
		// The blob arrived intact over TLS; a bad unseal is a bad
		// pass phrase or corrupt deposit, not a transport fault.
		return nil, resilience.Permanent(err)
	}
	cred, err := pki.DecodeCredentialPEM(plain, nil)
	pki.WipeBytes(plain) // decoded into cred; drop the plaintext PEM
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	return cred, nil
}
