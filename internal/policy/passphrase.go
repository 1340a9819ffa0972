// Package policy implements the server-side policy checks the paper calls
// for: pass-phrase quality rules (§4.1 "the pass phrase ... can be tested by
// the repository to make sure they meet any local policy (e.g. the pass
// phrase must be a certain length, survive dictionary checks, etc.)"),
// distinguished-name access control lists (§5.1), and lifetime limits
// (§4.1, §4.3).
package policy

import (
	"errors"
	"fmt"
	"strings"
)

// PassphrasePolicy validates user-chosen pass phrases: the two checks §4.1
// names, a minimum length and a dictionary of weak phrases.
type PassphrasePolicy struct {
	// MinLength is the minimum pass phrase length in bytes; 0 selects
	// DefaultMinPassphraseLength.
	MinLength int
}

// DefaultMinPassphraseLength matches the MyProxy C implementation's
// MIN_PASS_PHRASE_LEN of 6 characters.
const DefaultMinPassphraseLength = 6

// builtinDictionary lists pass phrases rejected outright; the check is
// case-insensitive and also applied to the phrase with digits stripped.
var builtinDictionary = []string{
	"password", "passphrase", "passwd", "secret", "letmein", "welcome",
	"qwerty", "abc123", "123456", "1234567", "12345678", "123456789",
	"iloveyou", "admin", "root", "guest", "changeme", "default", "grid",
	"myproxy", "globus", "monkey", "dragon", "master", "sunshine",
	"princess", "football", "baseball", "trustno1", "superman",
}

// ErrWeakPassphrase wraps all pass-phrase policy violations.
var ErrWeakPassphrase = errors.New("policy: weak pass phrase")

// Check validates the pass phrase against the policy, returning an error
// that wraps ErrWeakPassphrase on violation.
func (p PassphrasePolicy) Check(passphrase string) error {
	minLen := p.MinLength
	if minLen <= 0 {
		minLen = DefaultMinPassphraseLength
	}
	if len(passphrase) < minLen {
		return fmt.Errorf("%w: shorter than %d characters", ErrWeakPassphrase, minLen)
	}
	if strings.TrimSpace(passphrase) == "" {
		return fmt.Errorf("%w: all whitespace", ErrWeakPassphrase)
	}
	lower := strings.ToLower(passphrase)
	stripped := strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return -1
		}
		return r
	}, lower)
	for _, word := range builtinDictionary {
		if lower == word || stripped == word {
			return fmt.Errorf("%w: found in dictionary", ErrWeakPassphrase)
		}
	}
	return nil
}
