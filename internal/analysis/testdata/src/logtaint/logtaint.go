// Package logtaintfix exercises the logtaint pass: wire-tainted values
// reaching log lines unescaped. %q and %x operands are excused (they
// cannot smuggle control characters into the audit stream); %s and %v are
// not. The pass sees through printf-shaped repository helpers and through
// logf-shaped function values; secrets reaching a log sink either way are
// reported, never verb-excused.
package logtaintfix

import "log"

// Passphrase is secret-bearing.
//
//myproxy:secret
type Passphrase []byte

// line hands back one line of raw peer input.
//
//myproxy:untrusted
func line() string { return "x" }

// Direct logs the raw wire value: %s flags, %q is clean.
func Direct() {
	name := line()
	log.Printf("login %s", name)
	log.Printf("login %q", name)
	log.Println("listener up")
}

// server carries a pluggable log function, the shape the direct-sink
// table cannot see through.
type server struct {
	logf func(string, ...interface{})
}

// Wrapped exercises the logf-value sink: wire taint under %s flags, %q
// is clean, and a secret operand flags regardless of its verb.
func (s *server) Wrapped(pw Passphrase) {
	name := line()
	s.logf("user %s", name)
	s.logf("user %q", name)
	s.logf("pw %x", pw)
}

// failf is a printf-shaped helper: flows from its operands to the log
// line are recorded with the format parameter's index, so the caller's
// constant format resolves each operand's verb.
func failf(format string, args ...interface{}) {
	log.Printf("reject: "+format, args...)
}

// Interproc flags the %s call site and keeps the %q one clean.
func Interproc() {
	name := line()
	failf("bad user %s", name)
	failf("bad user %q", name)
}

// DirectSecret exercises a secret at a direct sink: reported whatever its verb.
func DirectSecret(pw Passphrase) {
	log.Printf("pw %x", pw)
}
