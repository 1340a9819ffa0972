package analysis

import (
	"go/ast"
	"strings"
)

// Pragma suppression. A finding can be acknowledged in source with
//
//	//myproxy:allow <pass> <one-line rationale>
//
// either trailing the offending line or standing alone on the line
// directly above it. A pragma suppresses findings of exactly the named
// pass on exactly its target line — nothing else. The rationale is
// mandatory: an allowance without a recorded reason is itself a finding
// (pass "pragma"), as is an allowance naming a pass that does not exist.

const (
	pragmaPrefix = "//myproxy:"
	allowPrefix  = "//myproxy:allow"
	// secretMarker labels a named type as secret-bearing (see secret.go).
	secretMarker = "//myproxy:secret"
)

// allowance is one parsed //myproxy:allow pragma.
type allowance struct {
	pass   string
	reason string
	// line is the source line the pragma suppresses.
	line int
}

// pragmaIndex holds, per file name, the allowances keyed by target line.
type pragmaIndex map[string]map[int][]allowance

// collectPragmas parses every //myproxy: comment in the load. Malformed
// pragmas are reported as "pragma" diagnostics (which cannot themselves be
// suppressed). knownPasses guards against typoed pass names.
func collectPragmas(pkgs []*Package, knownPasses map[string]bool) (pragmaIndex, []Diagnostic) {
	idx := make(pragmaIndex)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			fname := pkg.Fset.Position(file.Pos()).Filename
			data := pkg.Src[fname]
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, pragmaPrefix) {
						continue
					}
					if text == secretMarker {
						continue // handled by secret.go
					}
					if text == hotpathMarker {
						continue // handled by hotpath.go
					}
					pos := pkg.Fset.Position(c.Pos())
					rest, ok := strings.CutPrefix(text, allowPrefix)
					if !ok {
						diags = append(diags, pkg.diag("pragma", c.Pos(),
							"unknown myproxy pragma %q (want %q or %q)", text, allowPrefix, secretMarker))
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						diags = append(diags, pkg.diag("pragma", c.Pos(),
							"malformed pragma: want //myproxy:allow <pass> <reason>"))
						continue
					}
					pass := fields[0]
					if !knownPasses[pass] {
						diags = append(diags, pkg.diag("pragma", c.Pos(),
							"pragma names unknown pass %q", pass))
						continue
					}
					target := pos.Line
					if standaloneComment(data, pos.Line, pos.Column) {
						target = pos.Line + 1
					}
					if idx[fname] == nil {
						idx[fname] = make(map[int][]allowance)
					}
					idx[fname][target] = append(idx[fname][target],
						allowance{pass: pass, reason: strings.Join(fields[1:], " "), line: target})
				}
			}
		}
	}
	return idx, diags
}

// standaloneComment reports whether the comment starting at (line, col) has
// nothing but whitespace before it on its line — i.e. it is not trailing
// code, so it applies to the line below.
func standaloneComment(src []byte, line, col int) bool {
	// Find the start of the line by walking line breaks.
	cur := 1
	i := 0
	for ; i < len(src) && cur < line; i++ {
		if src[i] == '\n' {
			cur++
		}
	}
	prefix := src[i:]
	if col-1 < len(prefix) {
		prefix = prefix[:col-1]
	}
	return strings.TrimSpace(string(prefix)) == ""
}

// suppressed reports whether d is covered by an allowance for its pass on
// its line.
func (idx pragmaIndex) suppressed(d Diagnostic) bool {
	for _, a := range idx[d.Pos.Filename][d.Pos.Line] {
		if a.pass == d.Pass {
			return true
		}
	}
	return false
}

// typeDocHasMarker reports whether a type declaration carries the
// //myproxy:secret marker in its doc comment (either on the GenDecl or the
// TypeSpec).
func typeDocHasMarker(docs ...*ast.CommentGroup) bool {
	return docHasMarker(secretMarker, docs...)
}

// docHasMarker reports whether any of the doc comments carries the given
// standalone marker line.
func docHasMarker(marker string, docs ...*ast.CommentGroup) bool {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if strings.TrimSpace(c.Text) == marker {
				return true
			}
		}
	}
	return false
}
