package protocol

import (
	"testing"
	"time"
)

// FuzzParseRequest feeds the line-oriented request parser arbitrary wire
// bytes. The seed corpus is the golden exchange set from the round-trip
// tests, marshaled to real wire form. Two invariants beyond "no panic":
// an accepted request satisfies the parse-boundary charset checks, and it
// survives a marshal/parse round trip with its identity fields intact.
func FuzzParseRequest(f *testing.F) {
	seeds := []*Request{
		{Command: CmdGet, Username: "jdoe", Passphrase: "secret pass", Lifetime: 2 * time.Hour},
		{Command: CmdPut, Username: "jdoe", Passphrase: "secret pass", Lifetime: 7 * 24 * time.Hour,
			Retrievers: `"/C=US/O=Test CA/CN=*"`, Description: "weekly cred"},
		{Command: CmdInfo, Username: "jdoe", Passphrase: "p"},
		{Command: CmdDestroy, Username: "jdoe", Passphrase: "p", CredName: "cluster-a"},
		{Command: CmdChangePassphrase, Username: "jdoe", Passphrase: "old", NewPassphrase: "new phrase"},
		{Command: CmdRetrieve, Username: "jdoe", Passphrase: "p", TaskHint: "hpc"},
		{Command: CmdGet, Username: "jdoe", OTP: "a1b2c3d4e5f60708"},
		{Command: CmdSession, Username: "-"},
	}
	for _, req := range seeds {
		data, err := MarshalRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=jdoe\nPASSPHRASE=p\n"))
	f.Add([]byte("COMMAND=0\nUSERNAME==\n"))
	f.Add([]byte("VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=a\\nb\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return // rejection is fine; not panicking is the property
		}
		if err := ValidateUsername(req.Username); err != nil {
			t.Errorf("accepted request violates username charset: %v", err)
		}
		if req.CredName != "" {
			if err := ValidateCredName(req.CredName); err != nil {
				t.Errorf("accepted request violates cred-name charset: %v", err)
			}
		}
		out, err := MarshalRequest(req)
		if err != nil {
			t.Fatalf("re-marshal of accepted request failed: %v", err)
		}
		back, err := ParseRequest(out)
		if err != nil {
			t.Fatalf("re-parse of marshaled request failed: %v", err)
		}
		if back.Command != req.Command || back.Username != req.Username ||
			back.CredName != req.CredName || back.Passphrase != req.Passphrase {
			t.Errorf("round trip changed fields: %+v != %+v", back, req)
		}
	})
}

// FuzzParseResponse feeds the response parser arbitrary bytes; accepted
// responses must survive a marshal/parse round trip.
func FuzzParseResponse(f *testing.F) {
	seeds := []*Response{
		{Code: RespOK},
		{Code: RespError, Errors: []string{"authorization failed"}},
		{Code: RespAuthRequired, Challenge: "otp-sha1 42 seedvalue"},
		{Code: RespOK, Blob: []byte{0x30, 0x82, 0x01, 0x00, 0xff, 0x00}},
		{Code: RespOK, Infos: []CredInfo{{
			Name: "cluster-a", Owner: "/C=US/O=Test/CN=jdoe",
			StartTime: time.Unix(1000000000, 0).UTC(),
			EndTime:   time.Unix(1000600000, 0).UTC(),
			TaskTags:  []string{"hpc", "transfer"},
		}}},
	}
	for _, resp := range seeds {
		f.Add(MarshalResponse(resp))
	}
	f.Add([]byte("VERSION=MYPROXYv2\nRESPONSE=0\n"))
	f.Add([]byte("VERSION=MYPROXYv2\nRESPONSE=2\nCHALLENGE=x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ParseResponse(data)
		if err != nil {
			return
		}
		back, err := ParseResponse(MarshalResponse(resp))
		if err != nil {
			t.Fatalf("re-parse of marshaled response failed: %v", err)
		}
		if back.Code != resp.Code || back.Challenge != resp.Challenge ||
			len(back.Errors) != len(resp.Errors) || string(back.Blob) != string(resp.Blob) ||
			len(back.Infos) != len(resp.Infos) {
			t.Errorf("round trip changed fields: %+v != %+v", back, resp)
		}
	})
}
