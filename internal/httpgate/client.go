package httpgate

import (
	"bytes"
	"context"
	"crypto"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
)

// Client talks to an HTTP gateway with a Grid credential as the TLS client
// certificate — the "standard web-oriented libraries" consumer §6.4 has in
// mind: everything below is plain net/http plus JSON.
type Client struct {
	// Credential authenticates the client (the TLS client certificate
	// chain; proxy chains are fine).
	Credential *pki.Credential
	// Roots verify the gateway's server certificate (standard TLS — the
	// gateway presents an ordinary host certificate).
	Roots *x509.CertPool
	// BaseURL is e.g. "https://myproxy.example.org:7513".
	BaseURL string
	// ServerName overrides SNI/hostname verification when dialing by IP.
	ServerName string
	// KeyAlgorithm selects the delegation key algorithm; the zero value is
	// RSA, the paper-fidelity default.
	KeyAlgorithm pki.KeyAlgorithm
	// KeyBits sizes generated RSA delegation keys (0 = pki.DefaultKeyBits);
	// ignored for non-RSA algorithms.
	KeyBits int
	// KeySource, when non-nil, supplies delegation key pairs (typically a
	// keypool.Pool); nil generates synchronously.
	KeySource proxy.KeySource
	// Timeout bounds one call (0 = 30s).
	Timeout time.Duration

	httpClient *http.Client
}

func (c *Client) client() (*http.Client, error) {
	if c.httpClient != nil {
		return c.httpClient, nil
	}
	if c.Credential == nil || c.Roots == nil {
		return nil, fmt.Errorf("httpgate: client requires credential and roots")
	}
	cert := tls.Certificate{PrivateKey: c.Credential.PrivateKey}
	for _, cc := range c.Credential.CertChain() {
		cert.Certificate = append(cert.Certificate, cc.Raw)
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	c.httpClient = &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{
				Certificates: []tls.Certificate{cert},
				RootCAs:      c.Roots,
				ServerName:   c.ServerName,
				MinVersion:   tls.VersionTLS12,
				// Resume sessions when the transport has to redial (idle
				// timeout, connection churn under load).
				ClientSessionCache: tls.NewLRUClientSessionCache(0),
			},
		},
	}
	return c.httpClient, nil
}

func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	hc, err := c.client()
	if err != nil {
		return err
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out interface{}) error {
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 2<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error     string `json:"error"`
			Challenge string `json:"challenge"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			if e.Challenge != "" {
				return fmt.Errorf("httpgate: %s (challenge %q)", e.Error, e.Challenge)
			}
			return fmt.Errorf("httpgate: %s", e.Error)
		}
		return fmt.Errorf("httpgate: HTTP %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Get performs the single-round-trip Figure 2: generate a key locally,
// send a CSR, receive the delegated chain, and assemble the credential.
func (c *Client) Get(ctx context.Context, req GetRequest) (*pki.Credential, error) {
	spec := pki.KeySpec{Algorithm: c.KeyAlgorithm, Bits: c.KeyBits}
	var key crypto.Signer
	var err error
	if c.KeySource != nil {
		key, err = c.KeySource.Get(ctx, spec)
	} else {
		key, err = pki.GenerateSigner(spec)
	}
	if err != nil {
		return nil, err
	}
	csrDER, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject: c.Credential.Certificate.Subject,
	}, key)
	if err != nil {
		return nil, err
	}
	req.CSRPEM = string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE REQUEST", Bytes: csrDER}))
	var out GetResponse
	if err := c.post(ctx, "/v1/get", req, &out); err != nil {
		return nil, err
	}
	certs, err := pki.DecodeCertsPEM([]byte(out.ChainPEM))
	if err != nil {
		return nil, err
	}
	cred := &pki.Credential{Certificate: certs[0], PrivateKey: key, Chain: certs[1:]}
	if _, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{Roots: c.Roots}); err != nil {
		return nil, fmt.Errorf("httpgate: delegated chain rejected: %w", err)
	}
	if err := cred.Validate(time.Now()); err != nil {
		return nil, err
	}
	return cred, nil
}

// Info lists stored credentials.
func (c *Client) Info(ctx context.Context, username, passphrase string) (*InfoResponse, error) {
	var out InfoResponse
	if err := c.post(ctx, "/v1/info", InfoRequest{Username: username, Passphrase: passphrase}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Store seals the credential client-side and deposits the container.
func (c *Client) Store(ctx context.Context, req StoreRequest, cred *pki.Credential) error {
	plainPEM := cred.EncodePEM()
	blob, err := pki.SealBytes(plainPEM, []byte(req.Passphrase), 0)
	pki.WipeBytes(plainPEM) // sealed; drop the plaintext encoding
	if err != nil {
		return err
	}
	req.Blob = blob
	return c.post(ctx, "/v1/store", req, nil)
}

// Retrieve fetches and unseals a stored credential.
func (c *Client) Retrieve(ctx context.Context, req RetrieveRequest) (*pki.Credential, error) {
	var out struct {
		Blob []byte `json:"blob"`
	}
	if err := c.post(ctx, "/v1/retrieve", req, &out); err != nil {
		return nil, err
	}
	plain, err := pki.OpenBytes(out.Blob, []byte(req.Passphrase))
	if err != nil {
		return nil, err
	}
	cred, err := pki.DecodeCredentialPEM(plain, nil)
	pki.WipeBytes(plain) // decoded into cred; drop the plaintext PEM
	return cred, err
}

// Destroy removes a stored credential.
func (c *Client) Destroy(ctx context.Context, req DestroyRequest) error {
	return c.post(ctx, "/v1/destroy", req, nil)
}
