package protocol

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Command: CmdGet, Username: "jdoe", Passphrase: "secret pass", Lifetime: 2 * time.Hour},
		{Command: CmdPut, Username: "jdoe", Passphrase: "secret pass", Lifetime: 7 * 24 * time.Hour,
			Retrievers: "*/CN=portal*", MaxDelegation: 4 * time.Hour, Description: "main credential"},
		{Command: CmdInfo, Username: "jdoe", Passphrase: "p"},
		{Command: CmdDestroy, Username: "jdoe", Passphrase: "p", CredName: "cluster-a"},
		{Command: CmdChangePassphrase, Username: "jdoe", Passphrase: "old", NewPassphrase: "new phrase"},
		{Command: CmdStore, Username: "jdoe", Passphrase: "p", CredName: "longterm",
			TaskTags: []string{"hpc", "storage"}},
		{Command: CmdRetrieve, Username: "jdoe", Passphrase: "p", TaskHint: "hpc"},
		{Command: CmdGet, Username: "jdoe", OTP: "a1b2c3d4e5f60708"},
	}
	for _, req := range cases {
		data, err := MarshalRequest(req)
		if err != nil {
			t.Fatalf("marshal %v: %v", req.Command, err)
		}
		back, err := ParseRequest(data)
		if err != nil {
			t.Fatalf("parse %v: %v", req.Command, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", req.Command, back, req)
		}
	}
}

func TestRequestValuesWithNewlines(t *testing.T) {
	req := &Request{Command: CmdPut, Username: "jdoe", Passphrase: "line1\nline2", Description: `back\slash`}
	data, err := MarshalRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	//myproxy:allow consttime wire-format round-trip equality on fixtures, not an authentication decision
	if back.Passphrase != req.Passphrase || back.Description != req.Description {
		t.Errorf("escaping broken: %+v", back)
	}
}

func TestMarshalRequestValidation(t *testing.T) {
	if _, err := MarshalRequest(&Request{Command: Command(99), Username: "x"}); err == nil {
		t.Error("invalid command marshaled")
	}
	if _, err := MarshalRequest(&Request{Command: CmdGet}); err == nil {
		t.Error("missing username marshaled")
	}
}

func TestParseRequestErrors(t *testing.T) {
	bad := []string{
		"",
		"VERSION=MYPROXYv1\nCOMMAND=0\nUSERNAME=x\n",
		"COMMAND=0\nUSERNAME=x\n",                       // VERSION not first
		"VERSION=MYPROXYv2\nUSERNAME=x\n",               // no command
		"VERSION=MYPROXYv2\nCOMMAND=77\nUSERNAME=x\n",   // unknown command
		"VERSION=MYPROXYv2\nCOMMAND=0\n",                // no username
		"VERSION=MYPROXYv2\nCOMMAND=zero\nUSERNAME=x\n", // non-numeric
		"VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=x\nLIFETIME=-5\n",
		"VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=x\nnoequals\n",
	}
	for _, s := range bad {
		if _, err := ParseRequest([]byte(s)); err == nil {
			t.Errorf("ParseRequest(%q): expected error", s)
		}
	}
}

func TestParseRequestIgnoresUnknownKeys(t *testing.T) {
	data := "VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=x\nFUTURE_FIELD=whatever\n"
	req, err := ParseRequest([]byte(data))
	if err != nil {
		t.Fatalf("unknown key not ignored: %v", err)
	}
	if req.Username != "x" {
		t.Errorf("req = %+v", req)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	start := time.Unix(1700000000, 0).UTC()
	end := start.Add(8 * time.Hour)
	cases := []*Response{
		{Code: RespOK},
		{Code: RespError, Errors: []string{"bad pass phrase", "second diagnostic"}},
		{Code: RespAuthRequired, Challenge: "otp-sha1 42 seed77"},
		{Code: RespOK, Infos: []CredInfo{
			{Name: "", Owner: "/C=US/O=Grid/CN=Jane", StartTime: start, EndTime: end,
				MaxDelegation: time.Hour, Retrievers: "*/CN=portal*"},
			{Name: "cluster-a", Owner: "/C=US/O=Grid/CN=Jane", Description: "alt credential",
				StartTime: start, EndTime: end, TaskTags: []string{"hpc", "viz"}},
		}},
		{Code: RespOK, Blob: []byte("GRIDKEY1\x00\x01binary\nblob")},
	}
	for i, resp := range cases {
		back, err := ParseResponse(MarshalResponse(resp))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(resp, back) {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, back, resp)
		}
	}
}

func TestResponseErr(t *testing.T) {
	if err := OKResponse().Err(); err != nil {
		t.Errorf("OK response errored: %v", err)
	}
	err := ErrorResponse("credential %q not found", "x").Err()
	if err == nil || !strings.Contains(err.Error(), `credential "x" not found`) {
		t.Errorf("Err() = %v", err)
	}
	if (&Response{Code: RespError}).Err() == nil {
		t.Error("bare error response must produce an error")
	}
}

func TestParseResponseErrors(t *testing.T) {
	bad := []string{
		"",
		"VERSION=MYPROXYv2\n",              // no code
		"VERSION=MYPROXYv2\nRESPONSE=9\n",  // unknown code
		"VERSION=MYPROXYv2\nRESPONSE=ok\n", // non-numeric
		"VERSION=MYPROXYv2\nRESPONSE=0\nCRED_OWNER=/CN=x\n",          // owner before CRED
		"VERSION=MYPROXYv2\nRESPONSE=0\nCRED=a\nCRED_END_TIME=nan\n", // bad time
	}
	for _, s := range bad {
		if _, err := ParseResponse([]byte(s)); err == nil {
			t.Errorf("ParseResponse(%q): expected error", s)
		}
	}
}

func TestCommandString(t *testing.T) {
	if CmdGet.String() != "GET" || CmdStore.String() != "STORE" {
		t.Error("command names wrong")
	}
	if Command(55).String() != "COMMAND(55)" {
		t.Errorf("unknown command string = %q", Command(55).String())
	}
	if Command(55).Valid() {
		t.Error("Command(55) reported valid")
	}
}

// TestCommandIdempotenceTable walks every declared command: each has an
// explicit entry in the retry-safety table (a new command must decide), and
// the entries are the ones the cluster's replay rule depends on — a
// replayed DESTROY or CHANGE_PASSPHRASE is never safe.
func TestCommandIdempotenceTable(t *testing.T) {
	want := map[Command]bool{
		CmdGet: true, CmdPut: true, CmdInfo: true, CmdStore: true, CmdRetrieve: true, CmdSession: true,
		CmdDestroy: false, CmdChangePassphrase: false,
	}
	for c, name := range commandNames {
		if _, ok := idempotent[c]; !ok {
			t.Errorf("%s has no entry in the idempotence table", name)
		}
		w, ok := want[c]
		if !ok {
			t.Errorf("%s is not covered by this test: decide whether a replay is safe", name)
		}
		if got := c.Idempotent(); got != w {
			t.Errorf("%s.Idempotent() = %v, want %v", name, got, w)
		}
	}
	if len(idempotent) != len(commandNames) {
		t.Errorf("idempotence table has %d entries for %d declared commands", len(idempotent), len(commandNames))
	}
	if Command(55).Idempotent() {
		t.Error("an undeclared command reported idempotent")
	}
}

// TestParseErrorsDoNotEchoSecretBearingBytes: a parse error is written to
// the audit log and back to the peer (core.Server.reject), so it names the
// line, never its bytes. A pass phrase sent with a raw newline leaves its
// tail on a line of its own; a message whose first line is not VERSION may
// start with anything.
func TestParseErrorsDoNotEchoSecretBearingBytes(t *testing.T) {
	for _, msg := range []string{
		"VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=x\nPASSPHRASE=abc\ndef ghi\n",
		"PASSPHRASE=def ghi\nVERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=x\n",
		"=def ghi\n",
	} {
		for name, parse := range map[string]func([]byte) error{
			"ParseRequest":  func(b []byte) error { _, err := ParseRequest(b); return err },
			"ParseResponse": func(b []byte) error { _, err := ParseResponse(b); return err },
		} {
			err := parse([]byte(msg))
			if err == nil {
				t.Errorf("%s(%q): expected error", name, msg)
			} else if strings.Contains(err.Error(), "def ghi") {
				t.Errorf("%s(%q) echoes the line: %v", name, msg, err)
			}
		}
	}
	_, err := ParseRequest([]byte("VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=x\nPASSPHRASE=abc\ndef ghi\n"))
	if err == nil || !strings.Contains(err.Error(), "malformed line 5") {
		t.Errorf("error should name the line number: %v", err)
	}
}

// toWireName folds an arbitrary string onto the validated name alphabet,
// so the round-trip property and the parse-boundary charset check compose.
func toWireName(s string) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._@+-"
	if s == "" {
		return "u"
	}
	b := []byte(s)
	if len(b) > 64 {
		b = b[:64]
	}
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = alphabet[int(c)%len(alphabet)]
	}
	return string(out)
}

// Property: any passphrase round-trips, including control characters and
// '=' signs. Usernames are drawn from the wire alphabet — arbitrary
// usernames are a rejection property (TestParseRequestRejectsHostileNames),
// not a round-trip one, since validation runs at the parse boundary.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(user, pass string) bool {
		user = toWireName(user)
		req := &Request{Command: CmdGet, Username: user, Passphrase: pass}
		data, err := MarshalRequest(req)
		if err != nil {
			return false
		}
		back, err := ParseRequest(data)
		if err != nil {
			return false
		}
		//myproxy:allow consttime wire-format round-trip equality on fixtures, not an authentication decision
		return back.Username == user && back.Passphrase == pass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: response blobs of arbitrary bytes survive the line-oriented
// encoding.
func TestResponseBlobProperty(t *testing.T) {
	f := func(blob []byte) bool {
		resp := &Response{Code: RespOK, Blob: blob}
		back, err := ParseResponse(MarshalResponse(resp))
		if err != nil {
			return false
		}
		if len(blob) == 0 {
			return len(back.Blob) == 0
		}
		return string(back.Blob) == string(blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
