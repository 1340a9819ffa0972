package protocol

import (
	"errors"
	"fmt"
)

// Charset validation for wire-supplied names. Usernames and credential
// names are used as storage keys, audit-log fields and (hashed) path
// components, so the accepted alphabet is deliberately small: letters,
// digits, and the separator set ".-_@+" seen in account names and
// per-task credential labels. Everything else — path metacharacters,
// whitespace, control bytes, non-ASCII — is rejected at the trust
// boundary, before any backend lookup runs on the value.
//
// The single "-" username is allowed: session hellos use it as the
// no-user placeholder (see core/session.go).

// maxNameLen bounds both names; the prototype's repository layout keys
// credentials by these strings, and nothing legitimate approaches it.
const maxNameLen = 128

// ValidateUsername rejects a wire username outside the accepted
// alphabet or length.
func ValidateUsername(u string) error {
	if u == "" {
		return errors.New("protocol: empty username")
	}
	if len(u) > maxNameLen {
		return fmt.Errorf("protocol: username longer than %d bytes", maxNameLen)
	}
	for i := 0; i < len(u); i++ {
		if !nameByte(u[i]) {
			return fmt.Errorf("protocol: username contains forbidden byte %q", u[i])
		}
	}
	return nil
}

// ValidateCredName rejects a non-empty credential name outside the same
// alphabet. The empty name is valid on the wire (it selects the default
// credential) and is handled by the callers before validation.
func ValidateCredName(n string) error {
	if n == "" {
		return errors.New("protocol: empty credential name")
	}
	if len(n) > maxNameLen {
		return fmt.Errorf("protocol: credential name longer than %d bytes", maxNameLen)
	}
	for i := 0; i < len(n); i++ {
		if !nameByte(n[i]) {
			return fmt.Errorf("protocol: credential name contains forbidden byte %q", n[i])
		}
	}
	return nil
}

// nameByte is the accepted alphabet: ASCII letters, digits, and ".-_@+".
func nameByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '.' || b == '-' || b == '_' || b == '@' || b == '+':
		return true
	}
	return false
}
