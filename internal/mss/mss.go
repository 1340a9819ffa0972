// Package mss implements a GSI-protected mass storage system, the paper's
// canonical delegation consumer (§2.4: "a user's job that needs to be able
// to authenticate as the user to mass storage system to store the result of
// a long computation").
//
// The service authenticates clients over a GSI channel, maps the Grid
// identity to a local namespace with a gridmap, honors proxy policy
// restrictions (file-read/file-write operations), and stores objects
// per-account.
package mss

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"crypto/x509"

	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/proxy"
)

// Request is one storage operation.
type Request struct {
	Op   string `json:"op"` // "put", "get", "list", "delete"
	Name string `json:"name,omitempty"`
	Data []byte `json:"data,omitempty"`
}

// Reply is the server's answer.
type Reply struct {
	OK    bool     `json:"ok"`
	Error string   `json:"error,omitempty"`
	Data  []byte   `json:"data,omitempty"`
	Names []string `json:"names,omitempty"`
}

// Config configures a storage server.
type Config struct {
	Credential *pki.Credential
	Roots      *x509.CertPool
	// Gridmap maps client DNs to local accounts; unmapped identities are
	// refused (paper §2.1).
	Gridmap *gsi.Gridmap
	// MaxObjectBytes bounds one stored object (0 = 256 KiB).
	MaxObjectBytes int
	// SessionTimeout bounds one client session (0 = 30s).
	SessionTimeout time.Duration
}

// Server is an in-memory mass storage service: the handler of a GSI
// acceptor.
type Server struct {
	cfg      Config
	acceptor *gsi.Acceptor

	mu      sync.Mutex
	objects map[string]map[string][]byte // account -> name -> data
}

// NewServer builds a storage server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Credential == nil {
		return nil, errors.New("mss: credential required")
	}
	if cfg.Roots == nil {
		return nil, errors.New("mss: roots required")
	}
	if cfg.Gridmap == nil {
		return nil, errors.New("mss: gridmap required")
	}
	s := &Server{cfg: cfg, objects: make(map[string]map[string][]byte)}
	var err error
	s.acceptor, err = gsi.NewAcceptor(gsi.AcceptorConfig{
		Credential:     cfg.Credential,
		Auth:           gsi.AuthOptions{Roots: cfg.Roots},
		SessionTimeout: cfg.SessionTimeout,
		Handler:        s.serve,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Serve accepts sessions until Close.
func (s *Server) Serve(ln net.Listener) error { return s.acceptor.Serve(ln) }

// Close stops the server and waits for sessions to finish.
func (s *Server) Close() error { return s.acceptor.Close() }

// Objects returns a snapshot of one account's stored object names (tests).
func (s *Server) Objects(account string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name := range s.objects[account] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// serve runs one authenticated session: any number of operations.
func (s *Server) serve(conn *gsi.Conn) {
	s.cfg.Gridmap.Serve(conn, &Reply{Error: "identity not in gridmap"}, func(account string, msg []byte) (any, bool) {
		var req Request
		if err := json.Unmarshal(msg, &req); err != nil {
			return &Reply{Error: "malformed request"}, true
		}
		return s.dispatch(account, conn.Peer, &req), false
	})
}

func (s *Server) dispatch(account string, peer *proxy.Result, req *Request) *Reply {
	maxBytes := s.cfg.MaxObjectBytes
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	switch req.Op {
	case "put":
		// Writing requires the file-write right; limited proxies may
		// write (they are only barred from starting processes), but
		// restricted proxies must list the operation (paper §6.5).
		if !peer.Permits(proxy.OpFileWrite) {
			return &Reply{Error: "proxy policy forbids file-write"}
		}
		if req.Name == "" {
			return &Reply{Error: "object name required"}
		}
		if len(req.Data) > maxBytes {
			return &Reply{Error: fmt.Sprintf("object exceeds %d bytes", maxBytes)}
		}
		s.mu.Lock()
		if s.objects[account] == nil {
			s.objects[account] = make(map[string][]byte)
		}
		s.objects[account][req.Name] = append([]byte(nil), req.Data...)
		s.mu.Unlock()
		return &Reply{OK: true}
	case "get":
		if !peer.Permits(proxy.OpFileRead) {
			return &Reply{Error: "proxy policy forbids file-read"}
		}
		s.mu.Lock()
		data, ok := s.objects[account][req.Name]
		s.mu.Unlock()
		if !ok {
			return &Reply{Error: "no such object"}
		}
		return &Reply{OK: true, Data: append([]byte(nil), data...)}
	case "list":
		if !peer.Permits(proxy.OpFileRead) {
			return &Reply{Error: "proxy policy forbids file-read"}
		}
		return &Reply{OK: true, Names: s.Objects(account)}
	case "delete":
		if !peer.Permits(proxy.OpFileWrite) {
			return &Reply{Error: "proxy policy forbids file-write"}
		}
		s.mu.Lock()
		_, ok := s.objects[account][req.Name]
		delete(s.objects[account], req.Name)
		s.mu.Unlock()
		if !ok {
			return &Reply{Error: "no such object"}
		}
		return &Reply{OK: true}
	default:
		return &Reply{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// Client accesses a storage server with a Grid credential.
type Client struct {
	Credential     *pki.Credential
	Roots          *x509.CertPool
	Addr           string
	ExpectedServer string
	Timeout        time.Duration
	// DialContext overrides the transport dial (tests inject faults through
	// it; nil selects net.Dialer).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)

	// conn is the held-connection GSI caller every operation goes through,
	// built from the fields above on first use.
	mu   sync.Mutex
	conn *gsi.Caller
}

func (c *Client) caller() *gsi.Caller {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		c.conn = &gsi.Caller{Dialer: gsi.Dialer{
			Credential:   c.Credential,
			Roots:        c.Roots,
			Addr:         c.Addr,
			ExpectedPeer: c.ExpectedServer,
			Timeout:      c.Timeout,
			DialContext:  c.DialContext,
		}}
	}
	return c.conn
}

// Close shuts the client's session down.
func (c *Client) Close() error { return c.caller().Close() }

// call runs one request/reply exchange on the held session.
func (c *Client) call(req *Request) (*Reply, error) {
	var reply Reply
	if err := c.caller().Exchange(req, &reply, nil); err != nil {
		return nil, err
	}
	if !reply.OK {
		return nil, fmt.Errorf("mss: %s", reply.Error)
	}
	return &reply, nil
}

// Put stores an object under the caller's account.
func (c *Client) Put(name string, data []byte) error {
	_, err := c.call(&Request{Op: "put", Name: name, Data: data})
	return err
}

// Get fetches an object.
func (c *Client) Get(name string) ([]byte, error) {
	reply, err := c.call(&Request{Op: "get", Name: name})
	if err != nil {
		return nil, err
	}
	return reply.Data, nil
}

// List names the caller's objects.
func (c *Client) List() ([]string, error) {
	reply, err := c.call(&Request{Op: "list"})
	if err != nil {
		return nil, err
	}
	return reply.Names, nil
}

// Delete removes an object.
func (c *Client) Delete(name string) error {
	_, err := c.call(&Request{Op: "delete", Name: name})
	return err
}
