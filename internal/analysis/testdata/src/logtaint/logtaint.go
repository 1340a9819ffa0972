// Package logtaintfix exercises the logtaint pass: a secret handed to
// something that prints it — a log or fmt.Print* call, a printf-shaped
// repository helper, a logf-shaped function value. No verb excuses it.
// What a line says about a peer's own bytes is not the pass's business:
// the audit function escapes every line it writes.
package logtaintfix

import (
	"fmt"
	"log"
	"os"
)

// Passphrase is secret-bearing.
//
//myproxy:secret
type Passphrase []byte

// Direct prints through the standard sinks; the name is not a secret.
func Direct(name string, pw Passphrase) {
	log.Printf("login %s", name)
	log.Printf("pw %x", pw)
	log.Println("listener up", pw)
	fmt.Fprintf(os.Stderr, "pw %q\n", pw)
	fmt.Println(len(pw)) // a length is not the secret
}

// server carries a pluggable log function.
type server struct {
	logf func(string, ...interface{})
}

// Wrapped reaches the log through a func-typed field.
func (s *server) Wrapped(name string, pw Passphrase) {
	s.logf("user %s", name)
	s.logf("pw %x", pw)
}

// refuse is a printf-shaped helper with operands before its format and a
// result of its own, the shape of core's refusal helper.
func refuse(kind int, format string, args ...interface{}) error {
	log.Printf("DENIED: "+format, args...)
	return fmt.Errorf("refused (%d)", kind)
}

// Helper flags the secret operand at the call site, not inside the helper.
func Helper(name string, passphrase string) error {
	_ = refuse(1, "bad user %q", name)
	return refuse(2, "bad pass phrase %q for %q", passphrase, name)
}

// Propagators are not sinks: what they build is a value, followed elsewhere.
func Propagators(pw Passphrase) string {
	_ = fmt.Errorf("wrapped %x", pw)
	var w *os.File
	fmt.Fprintf(w, "%x", pw)
	return fmt.Sprintf("%x", pw)
}
