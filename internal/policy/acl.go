package policy

import (
	"fmt"
	"strings"
	"sync"
)

// ACL is an ordered list of distinguished-name patterns, matched against
// Globus-form DN strings. The repository keeps two (paper §5.1): one for
// clients allowed to delegate credentials in (typically users), and one for
// clients allowed to request delegations out (typically portals).
//
// Patterns use '*' as a wildcard matching any run of characters, the syntax
// the MyProxy C implementation's accepted_credentials/authorized_retrievers
// configuration uses, e.g.:
//
//	/C=US/O=Test Grid/*            any subject under the organization
//	*/CN=portal.example.org        any DN ending in the portal CN
//	/C=US/O=Test Grid/CN=Jane Doe  one exact subject
type ACL struct {
	mu       sync.RWMutex
	patterns []string
}

// NewACL builds an ACL from patterns; empty patterns are dropped.
func NewACL(patterns ...string) *ACL {
	acl := &ACL{}
	for _, p := range patterns {
		if strings.TrimSpace(p) != "" {
			acl.patterns = append(acl.patterns, strings.TrimSpace(p))
		}
	}
	return acl
}

// Add appends a pattern at runtime.
func (a *ACL) Add(pattern string) {
	pattern = strings.TrimSpace(pattern)
	if pattern == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.patterns = append(a.patterns, pattern)
}

// Empty reports whether no patterns are configured. An empty ACL permits
// nobody — the repository is deny-by-default (paper §5.1: "restricting
// service to authorized clients").
func (a *ACL) Empty() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.patterns) == 0
}

// Allows reports whether the DN string matches any pattern.
func (a *ACL) Allows(dn string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, p := range a.patterns {
		if MatchDN(p, dn) {
			return true
		}
	}
	return false
}

// MatchDN matches a single '*'-wildcard pattern against a DN string.
// Matching is case-sensitive, anchored at both ends.
func MatchDN(pattern, dn string) bool {
	return matchWild(pattern, dn)
}

// matchWild implements anchored glob matching with '*' only, iteratively
// (no backtracking blowup).
func matchWild(pattern, s string) bool {
	var starPattern, starS = -1, 0
	pi, si := 0, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '*':
			starPattern, starS = pi, si
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			pi++
			si++
		case starPattern >= 0:
			starS++
			si = starS
			pi = starPattern + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// ParseACLFile parses the repository's ACL file format: one pattern per
// line; '#' begins a comment; blank lines ignored. Quotes around a pattern
// (as in the C myproxy-server.config) are stripped.
func ParseACLFile(data []byte) (*ACL, error) {
	acl := &ACL{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line = strings.Trim(line, `"`)
		if line == "" {
			return nil, fmt.Errorf("policy: empty pattern on line %d", i+1)
		}
		acl.patterns = append(acl.patterns, line)
	}
	return acl, nil
}
