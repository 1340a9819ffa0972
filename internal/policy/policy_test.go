package policy

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPassphraseLength(t *testing.T) {
	p := PassphrasePolicy{}
	if err := p.Check("abcde"); !errors.Is(err, ErrWeakPassphrase) {
		t.Errorf("5-char phrase: %v", err)
	}
	if err := p.Check("abcdefg!"); err != nil {
		t.Errorf("valid phrase rejected: %v", err)
	}
	long := PassphrasePolicy{MinLength: 12}
	if err := long.Check("short pass"); !errors.Is(err, ErrWeakPassphrase) {
		t.Errorf("custom MinLength not applied: %v", err)
	}
}

func TestPassphraseWhitespace(t *testing.T) {
	if err := (PassphrasePolicy{}).Check("        "); !errors.Is(err, ErrWeakPassphrase) {
		t.Errorf("whitespace phrase: %v", err)
	}
}

func TestPassphraseDictionary(t *testing.T) {
	p := PassphrasePolicy{}
	for _, weak := range []string{"password", "PASSWORD", "Password1", "letmein", "myproxy", "qwerty123"} {
		if err := p.Check(weak); !errors.Is(err, ErrWeakPassphrase) {
			t.Errorf("dictionary word %q accepted: %v", weak, err)
		}
	}
	if err := p.Check("correct horse battery"); err != nil {
		t.Errorf("strong phrase rejected: %v", err)
	}
}

func TestMatchDN(t *testing.T) {
	cases := []struct {
		pattern, dn string
		want        bool
	}{
		{"/C=US/O=Grid/CN=jdoe", "/C=US/O=Grid/CN=jdoe", true},
		{"/C=US/O=Grid/CN=jdoe", "/C=US/O=Grid/CN=jdoe2", false},
		{"/C=US/O=Grid/*", "/C=US/O=Grid/CN=jdoe", true},
		{"/C=US/O=Grid/*", "/C=US/O=Other/CN=jdoe", false},
		{"*/CN=portal.example.org", "/C=US/O=Grid/CN=portal.example.org", true},
		{"*", "/anything", true},
		{"*portal*", "/C=US/CN=portal.example.org", true},
		{"/C=US/*/CN=x", "/C=US/O=A/OU=B/CN=x", true},
		{"", "", true},
		{"", "/CN=x", false},
		{"/CN=*", "/CN=", true},
	}
	for _, tc := range cases {
		if got := MatchDN(tc.pattern, tc.dn); got != tc.want {
			t.Errorf("MatchDN(%q, %q) = %v, want %v", tc.pattern, tc.dn, got, tc.want)
		}
	}
}

// Property: a DN always matches itself and the universal pattern.
func TestMatchDNProperty(t *testing.T) {
	f := func(s string) bool {
		s = strings.ReplaceAll(s, "*", "")
		return MatchDN(s, s) && MatchDN("*", s) && MatchDN(s+"*", s) && MatchDN("*"+s, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestACL(t *testing.T) {
	acl := NewACL("/C=US/O=Grid/*", "", "  ")
	if acl.Empty() {
		t.Error("ACL with one pattern reported empty")
	}
	if !acl.Allows("/C=US/O=Grid/CN=anyone") {
		t.Error("matching DN denied")
	}
	if acl.Allows("/C=DE/O=Grid/CN=anyone") {
		t.Error("non-matching DN allowed")
	}
	acl.Add("/C=DE/*")
	if !acl.Allows("/C=DE/O=Grid/CN=anyone") {
		t.Error("Add pattern not honored")
	}
	if got := len(acl.Patterns()); got != 2 {
		t.Errorf("Patterns() returned %d entries", got)
	}
}

func TestACLEmptyDeniesAll(t *testing.T) {
	acl := NewACL()
	if !acl.Empty() {
		t.Error("fresh ACL not empty")
	}
	if acl.Allows("/CN=anyone") {
		t.Error("empty ACL allowed a DN (must be deny-by-default)")
	}
}

func TestParseACLFile(t *testing.T) {
	data := []byte(`
# authorized retrievers
"/C=US/O=Grid/CN=portal.example.org"
/C=US/O=Grid/OU=Portals/*

  # trailing comment line
`)
	acl, err := ParseACLFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(acl.Patterns()) != 2 {
		t.Fatalf("patterns = %v", acl.Patterns())
	}
	if !acl.Allows("/C=US/O=Grid/CN=portal.example.org") {
		t.Error("quoted pattern not honored")
	}
	if !acl.Allows("/C=US/O=Grid/OU=Portals/CN=p2") {
		t.Error("wildcard pattern not honored")
	}
}

func TestLifetimeClampStored(t *testing.T) {
	p := LifetimePolicy{}
	if got := p.ClampStored(0); got != DefaultStoredLifetime {
		t.Errorf("default stored = %v", got)
	}
	if got := p.ClampStored(30 * 24 * time.Hour); got != DefaultMaxStoredLifetime {
		t.Errorf("over-max stored = %v", got)
	}
	if got := p.ClampStored(time.Hour); got != time.Hour {
		t.Errorf("in-range stored = %v", got)
	}
	custom := LifetimePolicy{MaxStored: 24 * time.Hour}
	if got := custom.ClampStored(48 * time.Hour); got != 24*time.Hour {
		t.Errorf("custom max stored = %v", got)
	}
}

func TestLifetimeClampDelegated(t *testing.T) {
	p := LifetimePolicy{}
	if got := p.ClampDelegated(0); got != DefaultDelegatedLifetime {
		t.Errorf("default delegated = %v", got)
	}
	if got := p.ClampDelegated(100 * time.Hour); got != DefaultMaxDelegatedLifetime {
		t.Errorf("over-max delegated = %v", got)
	}
}

func TestLifetimeOwnerRestriction(t *testing.T) {
	p := LifetimePolicy{}
	// Owner restriction tighter than server policy wins.
	if got := p.ClampDelegatedWithRestriction(4*time.Hour, time.Hour); got != time.Hour {
		t.Errorf("owner restriction ignored: %v", got)
	}
	// No owner restriction: server policy applies.
	if got := p.ClampDelegatedWithRestriction(4*time.Hour, 0); got != 4*time.Hour {
		t.Errorf("unexpected clamp: %v", got)
	}
	// Owner restriction looser than request: request wins.
	if got := p.ClampDelegatedWithRestriction(time.Hour, 8*time.Hour); got != time.Hour {
		t.Errorf("looser restriction misapplied: %v", got)
	}
}

// Patterns returns a copy of the configured patterns.
func (a *ACL) Patterns() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, len(a.patterns))
	copy(out, a.patterns)
	return out
}
