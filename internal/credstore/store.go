// Package credstore implements the MyProxy repository's credential storage
// (paper §5.1): every private key at rest is sealed with the owner's pass
// phrase, so a dump of the store yields no usable keys. Public certificate
// chains are kept in the clear so the server can answer INFO queries and
// select credentials without the pass phrase.
package credstore

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/kdf"
	"repro/internal/pki"
)

// Kind distinguishes how a stored credential was deposited.
type Kind int

const (
	// KindDelegated marks a proxy credential delegated into the repository
	// with myproxy-init (paper §4.1); the repository generated the key
	// during wire delegation and sealed it immediately.
	KindDelegated Kind = iota
	// KindStored marks a long-term credential uploaded for safekeeping
	// with myproxy-store (paper §6.1); the blob was sealed by the client
	// and is opaque to the repository.
	KindStored
)

func (k Kind) String() string {
	switch k {
	case KindDelegated:
		return "delegated"
	case KindStored:
		return "stored"
	default:
		return fmt.Sprintf("credstore.Kind(%d)", int(k))
	}
}

// Entry is one stored credential.
type Entry struct {
	// Username is the user-chosen account name, typically distinct from
	// the DN (paper §4.1: "more memorable and concise than a typical DN").
	Username string
	// Name distinguishes multiple credentials per user (wallet, §6.2);
	// empty is the default credential.
	Name string
	// Owner is the Grid DN of the client that deposited the credential;
	// only the owner may destroy or re-own it.
	Owner string
	// Kind is the deposit mode.
	Kind Kind
	// CertsPEM holds the public certificate chain (leaf first) for
	// KindDelegated entries. Empty for KindStored.
	CertsPEM []byte
	// SealedKey is the pass-phrase-sealed private key (KindDelegated) or
	// the client-sealed credential container (KindStored).
	SealedKey []byte
	// Verifier authenticates the pass phrase without unsealing, for INFO,
	// DESTROY and RETRIEVE. With VerifierFromSeal it was derived from the
	// seal's own stretch (pki.KeyPEMVerifier), whose salt and iteration
	// count SealedKey records; otherwise it is PBKDF2-HMAC-SHA256(pass
	// phrase, VerifierSalt, VerifierIter) — every KindStored entry, whose
	// blob the server cannot open, and delegated entries written before
	// the seal-derived scheme.
	Verifier         []byte
	VerifierSalt     []byte
	VerifierIter     int
	VerifierFromSeal bool

	// Description is free text shown by myproxy-info.
	Description string
	// Retrievers optionally narrows which DNs may retrieve this credential.
	Retrievers string
	// MaxDelegation is the owner's retrieval restriction (§4.1).
	MaxDelegation time.Duration
	// TaskTags label the credential for wallet selection (§6.2).
	TaskTags []string
	// Renewable marks the credential as renewable without a pass phrase
	// by authorized renewers (paper §6.6); such entries are sealed under
	// an empty pass phrase.
	Renewable bool

	// NotBefore/NotAfter mirror the stored certificate validity so expiry
	// can be enforced and reported without parsing.
	NotBefore time.Time
	NotAfter  time.Time
	CreatedAt time.Time
}

// Expired reports whether the stored credential has expired.
func (e *Entry) Expired(now time.Time) bool {
	return !e.NotAfter.IsZero() && now.After(e.NotAfter)
}

// Clone returns a deep copy so callers can mutate safely. The copy is in
// canonical form (normalize).
func (e *Entry) Clone() *Entry {
	c := *e
	c.CertsPEM = append([]byte(nil), e.CertsPEM...)
	c.SealedKey = append([]byte(nil), e.SealedKey...)
	c.Verifier = append([]byte(nil), e.Verifier...)
	c.VerifierSalt = append([]byte(nil), e.VerifierSalt...)
	c.TaskTags = append([]string(nil), e.TaskTags...)
	c.normalize()
	return &c
}

// normalize puts the entry in canonical form: empty slices become nil.
// Backends must return normalized entries — an in-memory backend naturally
// drops the empty/nil distinction through Clone's append, while a JSON
// round trip resurrects empty-but-non-nil slices; without one canonical
// form, cluster replicas backed by different engines would disagree on
// byte-identical credentials.
func (e *Entry) normalize() {
	if len(e.CertsPEM) == 0 {
		e.CertsPEM = nil
	}
	if len(e.SealedKey) == 0 {
		e.SealedKey = nil
	}
	if len(e.Verifier) == 0 {
		e.Verifier = nil
	}
	if len(e.VerifierSalt) == 0 {
		e.VerifierSalt = nil
	}
	if len(e.TaskTags) == 0 {
		e.TaskTags = nil
	}
}

// Backend is the pluggable single-node persistence contract: the five
// operations every storage implementation (in-memory, directory-backed,
// and any future engine added to Open) must provide.
// Implementations must be safe for concurrent use, must return entries
// in canonical form (see Entry.normalize), and must use the package error
// values (ErrNotFound) so higher layers — the repository server, the
// cluster replication path — behave identically regardless of backend.
// The conformance suite in conformance_test.go enforces the contract.
type Backend interface {
	// Put inserts or replaces the entry keyed by (Username, Name).
	Put(e *Entry) error
	// Get returns the entry or ErrNotFound.
	Get(username, name string) (*Entry, error)
	// List returns all entries for username, default credential first,
	// then sorted by name. A username with no entries yields an empty
	// list, not an error.
	List(username string) ([]*Entry, error)
	// Delete removes an entry, returning ErrNotFound if absent.
	Delete(username, name string) error
	// Usernames returns all usernames with stored credentials, sorted
	// (admin and rebalance use).
	Usernames() ([]string, error)
}

// ErrNotFound is returned for missing credentials.
var ErrNotFound = errors.New("credstore: no such credential")

// ErrBadPassphrase is returned when pass-phrase verification fails.
var ErrBadPassphrase = errors.New("credstore: pass phrase incorrect")

var errNoVerifier = errors.New("credstore: entry has no pass phrase verifier")

// SetPassphrase installs a PBKDF2 verifier for a pass phrase under a fresh
// salt, at iter iterations (<= 0 selects pki.DefaultKDFIterations). It is
// the verifier of sealed bytes the server cannot open; SealDelegated
// derives its own.
func (e *Entry) SetPassphrase(passphrase []byte, iter int) error {
	if iter <= 0 {
		iter = pki.DefaultKDFIterations
	}
	salt := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, salt); err != nil {
		return fmt.Errorf("credstore: salt: %w", err)
	}
	e.VerifierSalt, e.VerifierIter, e.VerifierFromSeal = salt, iter, false
	//myproxy:allow secretescape the verifier digest is persisted by design; the KDF input, not this derived value, is the secret to wipe
	e.Verifier = kdf.SHA256Key(passphrase, salt, iter, 32)
	return nil
}

// CheckPassphrase verifies a pass phrase against the entry's verifier in
// constant time, at the cost of one stretch.
func (e *Entry) CheckPassphrase(passphrase []byte) error {
	if len(e.Verifier) == 0 {
		return errNoVerifier
	}
	got, err := e.verifierFor(passphrase)
	if err != nil {
		return err
	}
	ok := hmac.Equal(got, e.Verifier)
	pki.WipeBytes(got) // the derived verifier is pass-phrase-equivalent
	if !ok {
		return ErrBadPassphrase
	}
	return nil
}

// verifierFor recomputes Verifier's value for a pass-phrase guess under
// the entry's scheme. Stored parameters are input: a count no seal writes
// is refused rather than run.
func (e *Entry) verifierFor(passphrase []byte) ([]byte, error) {
	if e.VerifierFromSeal {
		return pki.KeyPEMVerifier(e.SealedKey, passphrase)
	}
	if len(e.VerifierSalt) == 0 || e.VerifierIter <= 0 {
		return nil, errNoVerifier
	}
	if e.VerifierIter > pki.MaxKDFIterations {
		return nil, fmt.Errorf("credstore: implausible verifier iteration count %d", e.VerifierIter)
	}
	return kdf.SHA256Key(passphrase, e.VerifierSalt, e.VerifierIter, 32), nil
}

// sha256sum is a helper for file-store naming.
func sha256sum(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// SealDelegated packages a freshly delegated credential into an entry:
// the private key is sealed under the pass phrase and the plaintext is the
// caller's responsibility to discard (paper §5.1). kdfIter <= 0 selects
// pki.DefaultKDFIterations. The pass phrase is stretched once: the seal
// key and the verifier both come from that stretch, so a guess against
// either part of a dumped entry costs kdfIter iterations.
func SealDelegated(e *Entry, cred *pki.Credential, passphrase []byte, kdfIter int) error {
	keyPEM, verifier, err := pki.EncryptKeyPEM(cred.PrivateKey, passphrase, kdfIter)
	if err != nil {
		return err
	}
	e.Kind = KindDelegated
	e.CertsPEM = pki.EncodeCertsPEM(cred.CertChain())
	e.SealedKey = keyPEM
	e.Verifier, e.VerifierSalt, e.VerifierIter, e.VerifierFromSeal = verifier, nil, 0, true
	e.NotBefore = cred.Certificate.NotBefore
	e.NotAfter = cred.Certificate.NotAfter
	return nil
}

// UnsealDelegated reconstructs the delegated credential, verifying the pass
// phrase. The caller must discard the plaintext key as soon as the
// delegation completes.
//
// The sealed key is AES-GCM authenticated under the pass-phrase-derived
// key, so decryption itself proves the pass phrase; running the separate
// verifier first would double the KDF cost of every retrieval for no
// security gain. The verifier exists for entries the server cannot
// decrypt (opaque KindStored blobs) and for operations that must check
// the pass phrase without unsealing (INFO, DESTROY).
func UnsealDelegated(e *Entry, passphrase []byte) (*pki.Credential, error) {
	if e.Kind != KindDelegated {
		return nil, fmt.Errorf("credstore: %s credential cannot be unsealed for delegation", e.Kind)
	}
	key, err := pki.DecryptKeyPEM(e.SealedKey, passphrase)
	if err != nil {
		if errors.Is(err, pki.ErrBadPassphrase) {
			return nil, ErrBadPassphrase
		}
		return nil, err
	}
	certs, err := pki.DecodeCertsPEM(e.CertsPEM)
	if err != nil {
		return nil, err
	}
	return &pki.Credential{Certificate: certs[0], PrivateKey: key, Chain: certs[1:]}, nil
}

// Issuer is a delegated entry opened to sign proxies (UnsealIssuer).
type Issuer struct {
	// Credential holds the key and the leaf certificate a proxy is minted
	// under; its Chain is not parsed, so its CertChain is the leaf alone.
	Credential *pki.Credential
	// ChainPEM is the leaf and its chain in PEM, as pki.AppendCertsPEM
	// writes them: the bytes sent behind every proxy the issuer signs.
	ChainPEM []byte
}

// UnsealIssuer is UnsealDelegated for a delegation from the entry (a GET):
// the pass phrase is checked by decryption first, then only the leaf
// certificate is parsed, and the stored chain is kept in the PEM it is
// sent in (pki.DecryptIssuer). The caller must discard the plaintext key
// as soon as the delegation completes.
//
//myproxy:hotpath
func UnsealIssuer(e *Entry, passphrase []byte) (*Issuer, error) {
	if e.Kind != KindDelegated {
		return nil, fmt.Errorf("credstore: %s credential cannot be unsealed for delegation", e.Kind)
	}
	cred, chainPEM, err := pki.DecryptIssuer(e.SealedKey, passphrase, e.CertsPEM)
	if err != nil {
		if errors.Is(err, pki.ErrBadPassphrase) {
			return nil, ErrBadPassphrase
		}
		return nil, err
	}
	return &Issuer{Credential: cred, ChainPEM: chainPEM}, nil
}

// Reseal re-encrypts a delegated entry under a new pass phrase
// (myproxy-change-passphrase): two stretches, one to open and one to seal,
// and the entry leaves in the seal-derived verifier scheme whichever
// scheme it came in. Stored (opaque) entries cannot be resealed
// server-side; the client must re-upload.
func Reseal(e *Entry, oldPass, newPass []byte, kdfIter int) error {
	cred, err := UnsealDelegated(e, oldPass)
	if err != nil {
		return err
	}
	defer pki.WipeSigner(cred.PrivateKey) // plaintext only between the two seals
	return SealDelegated(e, cred, newPass, kdfIter)
}
