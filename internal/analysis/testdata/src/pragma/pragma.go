// Package pragmafix exercises //myproxy:allow scoping: a pragma suppresses
// exactly its own pass on exactly its target line, and malformed pragmas
// are findings in their own right.
package pragmafix

import (
	"fmt"
	mrand "math/rand"
)

// Both triggers weakrand and logtaint on one line; the pragma names only
// weakrand, so the logtaint finding must survive.
func Both(passphrase string) {
	fmt.Println(passphrase, mrand.Int()) //myproxy:allow weakrand fixture exercises pragma scoping
}

// Standalone shows a pragma on the line above the finding.
func Standalone() int {
	//myproxy:allow weakrand fixture standalone pragma
	return mrand.Intn(10)
}

// Malformed carries a pragma with no rationale: the pragma is a finding
// and the weakrand finding is NOT suppressed.
func Malformed() int {
	return mrand.Int() //myproxy:allow weakrand
}

// Unknown names a pass that does not exist.
func Unknown() {
	//myproxy:allow nosuchpass some reason
	fmt.Println("x")
}
