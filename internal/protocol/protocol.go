// Package protocol defines the MyProxy client–server wire protocol
// (paper §4, §6.4: "The current MyProxy client-server protocol was quickly
// designed as a prototype" — a line-oriented request/response exchange over
// the GSI-protected channel, modeled on the MYPROXYv2 protocol of the C
// implementation).
//
// A request is a single framed message of KEY=VALUE lines:
//
//	VERSION=MYPROXYv2
//	COMMAND=0
//	USERNAME=jdoe
//	PASSPHRASE=...
//	LIFETIME=43200
//
// A response is a framed message beginning with VERSION and RESPONSE=0
// (OK), 1 (error), or 2 (authorization required), optionally followed by
// ERROR= lines and, for INFO, credential description groups introduced by
// CRED= lines. The GET and PUT commands are followed by a wire-delegation
// exchange (internal/gsi) in the direction the command implies.
package protocol

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Version is the protocol identifier exchanged in every message.
const Version = "MYPROXYv2"

// Command numbers follow the C implementation's myproxy_proto commands.
type Command int

const (
	// CmdGet requests delegation of a stored credential to the client
	// (myproxy-get-delegation, paper Fig. 2).
	CmdGet Command = 0
	// CmdPut delegates a proxy credential into the repository
	// (myproxy-init, paper Fig. 1).
	CmdPut Command = 1
	// CmdInfo queries stored credentials (myproxy-info).
	CmdInfo Command = 2
	// CmdDestroy removes stored credentials (myproxy-destroy, §4.1).
	CmdDestroy Command = 3
	// CmdChangePassphrase re-seals a stored credential under a new pass
	// phrase (myproxy-change-passphrase).
	CmdChangePassphrase Command = 4
	// CmdStore uploads a sealed long-term credential for safekeeping
	// (myproxy-store, paper §6.1).
	CmdStore Command = 5
	// CmdRetrieve downloads a sealed long-term credential
	// (myproxy-retrieve, paper §6.1).
	CmdRetrieve Command = 6
	// CmdSession asks the server to switch the connection into multiplexed
	// session mode (stream-framed pipelined exchanges, internal/gsi
	// Session). A server that predates sessions — or has them disabled —
	// answers with an error response, which the client treats as a clean
	// downgrade signal, not a failure.
	CmdSession Command = 7
)

var commandNames = map[Command]string{
	CmdGet: "GET", CmdPut: "PUT", CmdInfo: "INFO", CmdDestroy: "DESTROY",
	CmdChangePassphrase: "CHANGE_PASSPHRASE", CmdStore: "STORE", CmdRetrieve: "RETRIEVE",
	CmdSession: "SESSION",
}

func (c Command) String() string {
	if n, ok := commandNames[c]; ok {
		return n
	}
	return fmt.Sprintf("COMMAND(%d)", int(c))
}

// Valid reports whether c is a known command.
func (c Command) Valid() bool {
	_, ok := commandNames[c]
	return ok
}

// idempotent is the one table of retry safety: whether re-sending a command
// after an ambiguous outcome (resilience.AmbiguousError) leaves the same
// state, for the same caller, as sending it once. Everything that replays a
// command (cluster.Router.Write) asks here; a command absent from the table
// is not idempotent.
var idempotent = map[Command]bool{
	CmdGet: true, CmdInfo: true, CmdRetrieve: true, CmdSession: true, // reads
	CmdPut:              true,  // a replay overwrites the caller's own deposit with the same content
	CmdStore:            true,  // the sealed bytes are identical on every replay
	CmdDestroy:          false, // a replay can remove a deposit that landed between the attempts
	CmdChangePassphrase: false, // a replay fails on replicas already re-sealed under the new pass phrase
}

// Idempotent reports whether c may be replayed after an ambiguous outcome.
func (c Command) Idempotent() bool { return idempotent[c] }

// Request is a parsed client request. Every field is raw wire input.
type Request struct {
	Command    Command
	Username   string
	Passphrase string
	// NewPassphrase accompanies CmdChangePassphrase.
	NewPassphrase string
	// Lifetime is the requested credential lifetime (GET: lifetime of the
	// delegated proxy; PUT: lifetime of the stored credential).
	Lifetime time.Duration
	// CredName selects a named credential; empty selects the default
	// credential (electronic-wallet support, paper §6.2).
	CredName string
	// Description is stored verbatim with the credential at PUT/STORE.
	Description string
	// Retrievers optionally narrows, per credential, which client DNs may
	// retrieve it (pattern syntax of policy.MatchDN); it composes with the
	// server-wide authorized-retrievers ACL (paper §5.1).
	Retrievers string
	// MaxDelegation is the owner-imposed retrieval restriction: the
	// longest proxy lifetime the repository may delegate from this
	// credential (paper §4.1); 0 means unrestricted.
	MaxDelegation time.Duration
	// TaskTags labels the credential with the tasks it is intended for
	// (wallet selection, paper §6.2), comma-separated on the wire.
	TaskTags []string
	// TaskHint asks the server to select a credential suited to this task
	// when no CredName is given (wallet selection, paper §6.2).
	TaskHint string
	// OTP carries a one-time password response when the server requires
	// OTP authentication instead of the persistent pass phrase (§6.3).
	OTP string
	// Renewable marks a PUT credential as renewable by authorized
	// renewers without the pass phrase (paper §6.6, Condor-G support).
	// Renewable credentials are sealed under an empty pass phrase — the
	// trade-off the C implementation's "myproxy-init -n" makes.
	Renewable bool
	// Renewal marks a GET as a renewal request: authorization is by
	// renewer ACL plus identity match with the stored credential, not by
	// pass phrase (paper §6.6).
	Renewal bool
	// KeyAlg optionally names the key algorithm the server should use when
	// it generates the key pair for a server-side delegation (PUT with a
	// server KeySource), e.g. "rsa-2048", "ecdsa-p256", "ed25519". Legacy
	// servers ignore unknown keys, so the field downgrades safely to the
	// server default. Client-generated keys (GET) need no field: the CSR
	// itself carries the algorithm.
	KeyAlg string
}

// ResponseCode mirrors the C implementation's RESPONSE values. ParseResponse
// refuses any other value, so a code this client does not know arrives as a
// parse error — never as a success, and never as a transport fault the
// cluster client would fail over on.
type ResponseCode int

const (
	RespOK           ResponseCode = 0
	RespError        ResponseCode = 1
	RespAuthRequired ResponseCode = 2
)

// CredInfo describes one stored credential in an INFO response.
type CredInfo struct {
	Name          string
	Owner         string // DN that stored the credential
	Description   string
	StartTime     time.Time
	EndTime       time.Time
	MaxDelegation time.Duration
	Retrievers    string
	TaskTags      []string
}

// Response is a parsed server response.
type Response struct {
	Code ResponseCode
	// Errors carries human-readable diagnostics when Code != RespOK.
	Errors []string
	// Infos carries credential descriptions for CmdInfo.
	Infos []CredInfo
	// Challenge carries the OTP challenge when Code == RespAuthRequired
	// (§6.3), e.g. "otp-sha1 42 seedvalue".
	Challenge string
	// Blob carries the sealed credential container for CmdRetrieve.
	Blob []byte
}

// ServerError is a definitive verdict spoken by the repository itself —
// an authorization failure, a bad pass phrase, a policy rejection. Its
// type distinguishes "the server answered and said no" from transport
// faults: a client must not retry it, and a cluster router must not fail
// over to another replica for it (every replica would say the same).
type ServerError struct {
	Code ResponseCode
	// Msgs carries the response's diagnostic lines.
	Msgs []string
}

func (e *ServerError) Error() string {
	msg := strings.Join(e.Msgs, "; ")
	if msg == "" {
		msg = fmt.Sprintf("response code %d", int(e.Code))
	}
	return "myproxy server: " + msg
}

// IsServerVerdict reports whether err is (or wraps) a repository verdict.
func IsServerVerdict(err error) bool {
	var se *ServerError
	return errors.As(err, &se)
}

// Err converts a non-OK response into an error.
func (r *Response) Err() error {
	if r.Code == RespOK {
		return nil
	}
	return &ServerError{Code: r.Code, Msgs: r.Errors}
}

type fieldWriter struct {
	b strings.Builder
}

func (w *fieldWriter) put(key, value string) {
	w.b.WriteString(key)
	w.b.WriteByte('=')
	w.b.WriteString(value)
	w.b.WriteByte('\n')
}

// escape protects newlines in values; the wire format is line-oriented.
func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// unescape is escape's inverse. A value without a backslash, which is
// nearly every value, is returned as it is.
func unescape(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// MarshalRequest serializes a request.
func MarshalRequest(req *Request) ([]byte, error) {
	if !req.Command.Valid() {
		return nil, fmt.Errorf("protocol: invalid command %d", int(req.Command))
	}
	if req.Username == "" {
		return nil, errors.New("protocol: username required")
	}
	var w fieldWriter
	w.put("VERSION", Version)
	w.put("COMMAND", strconv.Itoa(int(req.Command)))
	w.put("USERNAME", escape(req.Username))
	if req.Passphrase != "" {
		w.put("PASSPHRASE", escape(req.Passphrase))
	}
	if req.NewPassphrase != "" {
		w.put("NEW_PHRASE", escape(req.NewPassphrase))
	}
	if req.Lifetime != 0 {
		w.put("LIFETIME", strconv.FormatInt(int64(req.Lifetime/time.Second), 10))
	}
	if req.CredName != "" {
		w.put("CRED_NAME", escape(req.CredName))
	}
	if req.Description != "" {
		w.put("CRED_DESC", escape(req.Description))
	}
	if req.Retrievers != "" {
		w.put("RETRIEVER", escape(req.Retrievers))
	}
	if req.MaxDelegation != 0 {
		w.put("MAX_DELEGATION", strconv.FormatInt(int64(req.MaxDelegation/time.Second), 10))
	}
	if len(req.TaskTags) != 0 {
		w.put("TASK_TAGS", escape(strings.Join(req.TaskTags, ",")))
	}
	if req.TaskHint != "" {
		w.put("TASK_HINT", escape(req.TaskHint))
	}
	if req.OTP != "" {
		w.put("OTP", escape(req.OTP))
	}
	if req.Renewable {
		w.put("RENEWABLE", "1")
	}
	if req.Renewal {
		w.put("RENEWAL", "1")
	}
	if req.KeyAlg != "" {
		w.put("KEY_ALG", escape(req.KeyAlg))
	}
	return []byte(w.b.String()), nil
}

func parseLines(data []byte) ([][2]string, error) {
	lines := strings.Split(string(data), "\n")
	out := make([][2]string, 0, len(lines))
	for i, line := range lines {
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			// The line itself is not echoed: it may be the tail of a pass
			// phrase sent with a raw newline, and this error reaches the
			// audit log and the peer.
			return nil, fmt.Errorf("protocol: malformed line %d", i+1)
		}
		out = append(out, [2]string{line[:eq], unescape(line[eq+1:])})
	}
	if len(out) == 0 {
		return nil, errors.New("protocol: empty message")
	}
	if out[0][0] != "VERSION" {
		return nil, errors.New("protocol: first line is not VERSION") // its value may be anything, a pass phrase included
	}
	if out[0][1] != Version {
		return nil, fmt.Errorf("protocol: unsupported version %q", out[0][1])
	}
	return out, nil
}

func parseSeconds(v string) (time.Duration, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("protocol: invalid seconds value %q", v)
	}
	return time.Duration(n) * time.Second, nil
}

// ParseRequest deserializes a request message.
func ParseRequest(data []byte) (*Request, error) {
	lines, err := parseLines(data)
	if err != nil {
		return nil, err
	}
	req := &Request{Command: -1}
	for _, kv := range lines[1:] {
		key, val := kv[0], kv[1]
		switch key {
		case "COMMAND":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("protocol: invalid command %q", val)
			}
			req.Command = Command(n)
		case "USERNAME":
			req.Username = val
		case "PASSPHRASE":
			req.Passphrase = val
		case "NEW_PHRASE":
			req.NewPassphrase = val
		case "LIFETIME":
			if req.Lifetime, err = parseSeconds(val); err != nil {
				return nil, err
			}
		case "CRED_NAME":
			req.CredName = val
		case "CRED_DESC":
			req.Description = val
		case "RETRIEVER":
			req.Retrievers = val
		case "MAX_DELEGATION":
			if req.MaxDelegation, err = parseSeconds(val); err != nil {
				return nil, err
			}
		case "TASK_TAGS":
			req.TaskTags = splitTags(val)
		case "TASK_HINT":
			req.TaskHint = val
		case "OTP":
			req.OTP = val
		case "RENEWABLE":
			req.Renewable = val == "1"
		case "RENEWAL":
			req.Renewal = val == "1"
		case "KEY_ALG":
			req.KeyAlg = val
		default:
			// Unknown keys are ignored for forward compatibility, matching
			// the prototype protocol's permissiveness (§6.4).
		}
	}
	if !req.Command.Valid() {
		return nil, fmt.Errorf("protocol: missing or invalid COMMAND")
	}
	if req.Username == "" {
		return nil, errors.New("protocol: missing USERNAME")
	}
	// Charset validation runs at the parse boundary: a request carrying a
	// hostile username or credential name never reaches a handler.
	if err := ValidateUsername(req.Username); err != nil {
		return nil, err
	}
	if req.CredName != "" {
		if err := ValidateCredName(req.CredName); err != nil {
			return nil, err
		}
	}
	return req, nil
}

func splitTags(v string) []string {
	var tags []string
	for _, t := range strings.Split(v, ",") {
		t = strings.TrimSpace(t)
		if t != "" {
			tags = append(tags, t)
		}
	}
	sort.Strings(tags)
	return tags
}

// MarshalResponse serializes a response.
func MarshalResponse(resp *Response) []byte {
	var w fieldWriter
	w.put("VERSION", Version)
	w.put("RESPONSE", strconv.Itoa(int(resp.Code)))
	for _, e := range resp.Errors {
		w.put("ERROR", escape(e))
	}
	if resp.Challenge != "" {
		w.put("CHALLENGE", escape(resp.Challenge))
	}
	for _, ci := range resp.Infos {
		name := ci.Name
		if name == "" {
			name = defaultCredMarker
		}
		w.put("CRED", escape(name))
		w.put("CRED_OWNER", escape(ci.Owner))
		if ci.Description != "" {
			w.put("CRED_DESC", escape(ci.Description))
		}
		w.put("CRED_START_TIME", strconv.FormatInt(ci.StartTime.Unix(), 10))
		w.put("CRED_END_TIME", strconv.FormatInt(ci.EndTime.Unix(), 10))
		if ci.MaxDelegation != 0 {
			w.put("CRED_MAX_DELEGATION", strconv.FormatInt(int64(ci.MaxDelegation/time.Second), 10))
		}
		if ci.Retrievers != "" {
			w.put("CRED_RETRIEVER", escape(ci.Retrievers))
		}
		if len(ci.TaskTags) != 0 {
			w.put("CRED_TASK_TAGS", escape(strings.Join(ci.TaskTags, ",")))
		}
	}
	if len(resp.Blob) != 0 {
		w.put("BLOB", escape(string(resp.Blob)))
	}
	return []byte(w.b.String())
}

// defaultCredMarker represents the unnamed default credential on the wire,
// where an empty value would be ambiguous.
const defaultCredMarker = "<default>"

// ParseResponse deserializes a response message.
func ParseResponse(data []byte) (*Response, error) {
	lines, err := parseLines(data)
	if err != nil {
		return nil, err
	}
	resp := &Response{Code: -1}
	var cur *CredInfo
	for _, kv := range lines[1:] {
		key, val := kv[0], kv[1]
		switch key {
		case "RESPONSE":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("protocol: invalid response code %q", val)
			}
			resp.Code = ResponseCode(n)
		case "ERROR":
			resp.Errors = append(resp.Errors, val)
		case "CHALLENGE":
			resp.Challenge = val
		case "CRED":
			name := val
			if name == defaultCredMarker {
				name = ""
			}
			resp.Infos = append(resp.Infos, CredInfo{Name: name})
			cur = &resp.Infos[len(resp.Infos)-1]
		case "CRED_OWNER", "CRED_DESC", "CRED_START_TIME", "CRED_END_TIME",
			"CRED_MAX_DELEGATION", "CRED_RETRIEVER", "CRED_TASK_TAGS":
			if cur == nil {
				return nil, fmt.Errorf("protocol: %s before CRED", key)
			}
			switch key {
			case "CRED_OWNER":
				cur.Owner = val
			case "CRED_DESC":
				cur.Description = val
			case "CRED_START_TIME":
				sec, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("protocol: bad CRED_START_TIME %q", val)
				}
				cur.StartTime = time.Unix(sec, 0).UTC()
			case "CRED_END_TIME":
				sec, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("protocol: bad CRED_END_TIME %q", val)
				}
				cur.EndTime = time.Unix(sec, 0).UTC()
			case "CRED_MAX_DELEGATION":
				if cur.MaxDelegation, err = parseSeconds(val); err != nil {
					return nil, err
				}
			case "CRED_RETRIEVER":
				cur.Retrievers = val
			case "CRED_TASK_TAGS":
				cur.TaskTags = splitTags(val)
			}
		case "BLOB":
			resp.Blob = []byte(val)
		default:
			// ignored for forward compatibility
		}
	}
	if resp.Code != RespOK && resp.Code != RespError && resp.Code != RespAuthRequired {
		return nil, errors.New("protocol: missing or invalid RESPONSE code")
	}
	return resp, nil
}

// OKResponse is a convenience constructor.
func OKResponse() *Response { return &Response{Code: RespOK} }

// ErrorResponse builds an error response with the given diagnostic.
func ErrorResponse(format string, args ...interface{}) *Response {
	return &Response{Code: RespError, Errors: []string{fmt.Sprintf(format, args...)}}
}
