// Package gram implements a GSI-protected resource manager in the mold of
// the Globus Toolkit's GRAM (paper §2.5): clients authenticate with proxy
// credentials, are mapped to local accounts via a gridmap, submit jobs, and
// may delegate a proxy to the job so it can act on the user's behalf
// unattended (paper §2.4) — for example storing results to the mass storage
// substrate.
package gram

import (
	"context"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gsi"
	"repro/internal/mss"
	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/renewal"
)

// State is a job's lifecycle phase.
type State string

const (
	StatePending State = "PENDING"
	StateActive  State = "ACTIVE"
	StateDone    State = "DONE"
	StateFailed  State = "FAILED"
)

// JobStatus is the externally visible job record.
type JobStatus struct {
	ID         string    `json:"id"`
	Owner      string    `json:"owner"` // Grid DN
	LocalUser  string    `json:"local_user"`
	Executable string    `json:"executable"`
	Args       []string  `json:"args,omitempty"`
	State      State     `json:"state"`
	Output     string    `json:"output,omitempty"`
	Error      string    `json:"error,omitempty"`
	Delegated  bool      `json:"delegated"`
	Submitted  time.Time `json:"submitted"`
	Finished   time.Time `json:"finished,omitempty"`
}

// Request is one manager operation.
type Request struct {
	Op         string   `json:"op"` // "submit", "status", "list", "cancel"
	Executable string   `json:"executable,omitempty"`
	Args       []string `json:"args,omitempty"`
	Delegate   bool     `json:"delegate,omitempty"`
	JobID      string   `json:"job_id,omitempty"`
	// RenewUser asks the manager to keep the job's delegated credential
	// fresh from its configured MyProxy repository under this account
	// (paper §6.6, Condor-G support); requires Delegate and a manager
	// configured with RenewalOptions.
	RenewUser string `json:"renew_user,omitempty"`
}

// Reply is the manager's answer.
type Reply struct {
	OK    bool        `json:"ok"`
	Error string      `json:"error,omitempty"`
	Job   *JobStatus  `json:"job,omitempty"`
	Jobs  []JobStatus `json:"jobs,omitempty"`
}

// Runner executes one job. cred is the proxy credential delegated to the
// job, or nil if the submission did not delegate.
type Runner func(ctx context.Context, job *JobStatus, cred *pki.Credential) (output string, err error)

// Config configures a job manager.
type Config struct {
	Credential *pki.Credential
	Roots      *x509.CertPool
	Gridmap    *gsi.Gridmap
	// Renewal, when non-nil, lets delegated jobs that name a RenewUser be
	// kept alive past their proxy lifetime: the manager runs a renewal
	// agent against the configured MyProxy repository (paper §6.6).
	Renewal *RenewalOptions
}

// RenewalOptions configures the §6.6 renewal agent the manager runs for
// long jobs.
type RenewalOptions struct {
	// RepoAddr is the MyProxy repository to renew from. Required.
	RepoAddr string
	// ExpectedServer pins the repository identity (DN pattern).
	ExpectedServer string
	// Threshold renews when less lifetime remains (0 = 15m).
	Threshold time.Duration
	// Lifetime requested per renewal (0 = server default).
	Lifetime time.Duration
	// Interval between checks (0 = Threshold/4, min 1s).
	Interval time.Duration
	// KeyBits for renewal delegation keys (0 = pki default).
	KeyBits int
}

// Server is the job manager: the handler of a GSI acceptor.
type Server struct {
	cfg      Config
	runners  map[string]Runner
	acceptor *gsi.Acceptor

	mu     sync.Mutex
	nextID int
	jobs   map[string]*job
	jobsWG sync.WaitGroup
}

type job struct {
	status JobStatus
	cancel context.CancelFunc
}

// NewServer builds a job manager.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Credential == nil || cfg.Roots == nil || cfg.Gridmap == nil {
		return nil, errors.New("gram: credential, roots, and gridmap required")
	}
	s := &Server{cfg: cfg, runners: BuiltinRunners(cfg.Roots), jobs: make(map[string]*job)}
	var err error
	s.acceptor, err = gsi.NewAcceptor(gsi.AcceptorConfig{
		Credential: cfg.Credential,
		Auth:       gsi.AuthOptions{Roots: cfg.Roots},
		Handler:    s.serve,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Serve accepts sessions until Close.
func (s *Server) Serve(ln net.Listener) error { return s.acceptor.Serve(ln) }

// Close stops accepting, waits for sessions to end, cancels jobs, and waits
// for those to finish.
func (s *Server) Close() error {
	err := s.acceptor.Close()
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.jobsWG.Wait()
	return err
}

// WaitIdle blocks until no jobs are pending or active (tests, examples).
func (s *Server) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		busy := false
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.status.State == StatePending || j.status.State == StateActive {
				busy = true
			}
		}
		s.mu.Unlock()
		if !busy {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("gram: jobs still running at deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serve runs one authenticated session: any number of operations.
func (s *Server) serve(conn *gsi.Conn) {
	owner := conn.PeerIdentity()
	s.cfg.Gridmap.Serve(conn, &Reply{Error: "identity not in gridmap"}, func(account string, msg []byte) (any, bool) {
		var req Request
		if err := json.Unmarshal(msg, &req); err != nil {
			return &Reply{Error: "malformed request"}, true
		}
		switch req.Op {
		case "submit":
			return s.handleSubmit(conn, account, &req), false
		case "status":
			return s.handleStatus(owner, req.JobID), false
		case "list":
			return s.handleList(owner), false
		case "cancel":
			return s.handleCancel(owner, req.JobID), false
		}
		return &Reply{Error: fmt.Sprintf("unknown op %q", req.Op)}, false
	})
}

func (s *Server) handleSubmit(conn *gsi.Conn, account string, req *Request) *Reply {
	// When the client requested delegation it is already blocked in the
	// delegation exchange, so complete that exchange before any validation
	// can produce an early error reply the client would misparse.
	var cred *pki.Credential
	if req.Delegate {
		// Receive a delegated proxy for the job (paper §2.4): the server
		// generates the key; the client signs.
		var err error
		cred, err = gsi.RequestDelegation(conn, pki.KeySpec{Bits: pki.DemoKeyBits}, s.cfg.Roots)
		if err != nil {
			return &Reply{Error: fmt.Sprintf("delegation failed: %v", err)}
		}
	}
	// Limited proxies must be refused by job-starting services (paper
	// §2.3/§6.5 semantics; the Globus gatekeeper does exactly this).
	if !conn.Peer.Permits(proxy.OpJobSubmit) {
		return &Reply{Error: "proxy policy forbids job submission"}
	}
	runner, ok := s.runners[req.Executable]
	if !ok {
		return &Reply{Error: fmt.Sprintf("unknown executable %q", req.Executable)}
	}

	s.mu.Lock()
	s.nextID++
	id := "job-" + strconv.Itoa(s.nextID)
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		status: JobStatus{
			ID:         id,
			Owner:      conn.PeerIdentity(),
			LocalUser:  account,
			Executable: req.Executable,
			Args:       append([]string(nil), req.Args...),
			State:      StatePending,
			Delegated:  cred != nil,
			Submitted:  time.Now(),
		},
		cancel: cancel,
	}
	s.jobs[id] = j
	st := j.status
	s.mu.Unlock()

	// §6.6: keep the job's credential fresh while it runs.
	if cred != nil && req.RenewUser != "" && s.cfg.Renewal != nil {
		holder := renewal.NewHolder(cred)
		opts := s.cfg.Renewal
		renewer, err := renewal.New(renewal.Config{
			Holder:   holder,
			Username: req.RenewUser,
			NewClient: func(c *pki.Credential) *core.Client {
				return &core.Client{
					Credential:     c,
					Roots:          s.cfg.Roots,
					Addr:           opts.RepoAddr,
					ExpectedServer: opts.ExpectedServer,
					KeyBits:        opts.KeyBits,
				}
			},
			Threshold: opts.Threshold,
			Lifetime:  opts.Lifetime,
			Interval:  opts.Interval,
		})
		if err == nil {
			ctx = renewal.WithHolder(ctx, holder)
			go renewer.Run(ctx) // stops when the job's context is cancelled
		}
	}

	s.jobsWG.Add(1)
	go s.run(ctx, id, runner, cred)

	return &Reply{OK: true, Job: &st}
}

func (s *Server) run(ctx context.Context, id string, runner Runner, cred *pki.Credential) {
	defer s.jobsWG.Done()
	s.mu.Lock()
	j := s.jobs[id]
	j.status.State = StateActive
	st := j.status
	s.mu.Unlock()

	output, err := runner(ctx, &st, cred)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel() // stop any renewal agent attached to the job context
	j.status.Finished = time.Now()
	if err != nil {
		j.status.State = StateFailed
		j.status.Error = err.Error()
	} else {
		j.status.State = StateDone
		j.status.Output = output
	}
}

func (s *Server) handleStatus(owner, id string) *Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.status.Owner != owner {
		return &Reply{Error: "no such job"}
	}
	st := j.status
	return &Reply{OK: true, Job: &st}
}

func (s *Server) handleList(owner string) *Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	var jobs []JobStatus
	for _, j := range s.jobs {
		if j.status.Owner == owner {
			jobs = append(jobs, j.status)
		}
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return &Reply{OK: true, Jobs: jobs}
}

func (s *Server) handleCancel(owner, id string) *Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.status.Owner != owner {
		return &Reply{Error: "no such job"}
	}
	if j.status.State == StatePending || j.status.State == StateActive {
		j.cancel()
	}
	st := j.status
	return &Reply{OK: true, Job: &st}
}

// BuiltinRunners returns the standard simulated executables:
//
//	echo <args...>                      output is the arguments
//	sleep <duration>                    waits (cancellable)
//	compute <n>                         simulates n units of work
//	store-result <addr> <name> <data>   stores data to the MSS at addr
//	                                    using the job's delegated proxy
//
// roots is the trust pool jobs use when they open outbound GSI channels
// (e.g. to mass storage).
func BuiltinRunners(roots *x509.CertPool) map[string]Runner {
	return map[string]Runner{
		"echo": func(ctx context.Context, job *JobStatus, cred *pki.Credential) (string, error) {
			return strings.Join(job.Args, " "), nil
		},
		"sleep": func(ctx context.Context, job *JobStatus, cred *pki.Credential) (string, error) {
			if len(job.Args) != 1 {
				return "", errors.New("sleep requires a duration argument")
			}
			d, err := time.ParseDuration(job.Args[0])
			if err != nil {
				return "", err
			}
			select {
			case <-time.After(d):
				return "slept " + d.String(), nil
			case <-ctx.Done():
				return "", errors.New("cancelled")
			}
		},
		"compute": func(ctx context.Context, job *JobStatus, cred *pki.Credential) (string, error) {
			if len(job.Args) != 1 {
				return "", errors.New("compute requires an iteration count")
			}
			n, err := strconv.Atoi(job.Args[0])
			if err != nil || n < 0 {
				return "", errors.New("compute requires a non-negative count")
			}
			var acc uint64
			for i := 0; i < n; i++ {
				acc = acc*6364136223846793005 + 1442695040888963407
				if i%1024 == 0 {
					select {
					case <-ctx.Done():
						return "", errors.New("cancelled")
					default:
					}
				}
			}
			return fmt.Sprintf("checksum %x", acc), nil
		},
		// grid-sleep simulates a long computation that periodically needs a
		// VALID credential (e.g. to touch mass storage); it reads the
		// current credential from the renewal holder when one is attached
		// (paper §6.6). Args: total duration, check interval.
		"grid-sleep": func(ctx context.Context, job *JobStatus, cred *pki.Credential) (string, error) {
			if len(job.Args) != 2 {
				return "", errors.New("grid-sleep requires duration and check interval")
			}
			total, err := time.ParseDuration(job.Args[0])
			if err != nil {
				return "", err
			}
			step, err := time.ParseDuration(job.Args[1])
			if err != nil || step <= 0 {
				return "", errors.New("bad check interval")
			}
			deadline := time.Now().Add(total)
			checks := 0
			for time.Now().Before(deadline) {
				select {
				case <-time.After(step):
				case <-ctx.Done():
					return "", errors.New("cancelled")
				}
				current := cred
				if holder, ok := renewal.HolderFrom(ctx); ok {
					current = holder.Credential()
				}
				if current == nil || current.TimeLeft() <= 0 {
					return "", fmt.Errorf("credential expired mid-run after %d checks", checks)
				}
				checks++
			}
			return fmt.Sprintf("completed with valid credential at all %d checks", checks), nil
		},
		"store-result": func(ctx context.Context, job *JobStatus, cred *pki.Credential) (string, error) {
			// The §2.4 scenario: the job authenticates to mass storage
			// *as the user* with its delegated proxy.
			if cred == nil {
				return "", errors.New("store-result requires a delegated credential")
			}
			if len(job.Args) != 3 {
				return "", errors.New("store-result requires addr, name, data")
			}
			client := &mss.Client{Credential: cred, Roots: roots, Addr: job.Args[0]}
			defer client.Close()
			if err := client.Put(job.Args[1], []byte(job.Args[2])); err != nil {
				return "", err
			}
			return "stored " + job.Args[1], nil
		},
	}
}
