package gsi

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Gridmap maps Grid identities (DN strings) to local account names
// (paper §2.1: "Unix hosts have a file containing DN and username pairs").
// Resources consult it after authentication to authorize and localize the
// caller.
type Gridmap struct {
	mu      sync.RWMutex
	entries map[string]string //myproxy:guardedby mu
}

// NewGridmap builds an empty gridmap.
func NewGridmap() *Gridmap {
	return &Gridmap{entries: make(map[string]string)}
}

// Add registers a DN -> local account mapping, replacing any previous one.
func (g *Gridmap) Add(dn, account string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries[dn] = account
}

// Remove deletes a mapping.
func (g *Gridmap) Remove(dn string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.entries, dn)
}

// Lookup resolves a DN to a local account.
func (g *Gridmap) Lookup(dn string) (account string, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	account, ok = g.entries[dn]
	return account, ok
}

// Serve is the front door of a gridmap-authorized service (paper §2.1) on
// one authenticated connection, speaking JSON messages. An unmapped identity
// is refused with unmapped; a mapped one has its requests handed to handle
// one at a time, each answered with the reply handle returns, until the peer
// hangs up or handle calls a reply the session's last.
func (g *Gridmap) Serve(conn *Conn, unmapped any, handle func(account string, request []byte) (reply any, last bool)) {
	account, ok := g.Lookup(conn.PeerIdentity())
	if !ok {
		if refusal, err := json.Marshal(unmapped); err == nil {
			_ = conn.Refuse(refusal) // the peer is refused either way
		}
		return
	}
	for {
		request, err := conn.ReadMessage()
		if err != nil {
			return
		}
		reply, last := handle(account, request)
		data, err := json.Marshal(reply)
		if err != nil || conn.WriteMessage(data) != nil || last {
			return
		}
	}
}

// Len reports the number of mappings.
func (g *Gridmap) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// DNs returns all mapped DNs, sorted, for diagnostics.
func (g *Gridmap) DNs() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.entries))
	for dn := range g.entries {
		out = append(out, dn)
	}
	sort.Strings(out)
	return out
}

// ParseGridmap parses the classic grid-mapfile format: each line is a
// quoted DN followed by whitespace and a local account name; '#' begins a
// comment.
//
//	"/C=US/O=Test Grid/CN=Jane Doe" jdoe
func ParseGridmap(data []byte) (*Gridmap, error) {
	entries := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, `"`) {
			return nil, fmt.Errorf("gsi: gridmap line %d: DN must be quoted", i+1)
		}
		end := strings.Index(line[1:], `"`)
		if end < 0 {
			return nil, fmt.Errorf("gsi: gridmap line %d: unterminated DN quote", i+1)
		}
		dn := line[1 : 1+end]
		account := strings.TrimSpace(line[2+end:])
		if dn == "" || account == "" {
			return nil, fmt.Errorf("gsi: gridmap line %d: missing DN or account", i+1)
		}
		// Multiple accounts may be listed comma-separated; the first is
		// the default, which is all this substrate needs.
		if comma := strings.IndexByte(account, ','); comma >= 0 {
			account = account[:comma]
		}
		if strings.ContainsAny(account, " \t") {
			return nil, fmt.Errorf("gsi: gridmap line %d: malformed account %q", i+1, account)
		}
		entries[dn] = account
	}
	return &Gridmap{entries: entries}, nil
}

// Encode renders the gridmap in grid-mapfile format, sorted by DN.
func (g *Gridmap) Encode() []byte {
	g.mu.RLock()
	defer g.mu.RUnlock()
	dns := make([]string, 0, len(g.entries))
	for dn := range g.entries {
		dns = append(dns, dn)
	}
	sort.Strings(dns)
	var b strings.Builder
	for _, dn := range dns {
		fmt.Fprintf(&b, "%q %s\n", dn, g.entries[dn])
	}
	return []byte(b.String())
}
