package credstore

import (
	"fmt"
	"strings"
)

// Open resolves a backend spec of the form "scheme" or "scheme:dsn" — "mem",
// or "file:<dir>" — for myproxy-server's -backend flag.
func Open(spec string) (Backend, error) {
	scheme, dsn, _ := strings.Cut(spec, ":")
	switch scheme {
	case "mem":
		if dsn != "" {
			return nil, fmt.Errorf("credstore: mem backend takes no dsn, got %q", dsn)
		}
		return NewMemStore(), nil
	case "file":
		if dsn == "" {
			return nil, fmt.Errorf("credstore: file backend needs a directory (file:<dir>)")
		}
		return NewFileStore(dsn)
	}
	return nil, fmt.Errorf("credstore: unknown backend %q (have: file, mem)", scheme)
}
