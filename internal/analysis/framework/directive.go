package framework

import (
	"strings"
)

// Suppression directives: a comment of the form
//
//	//dslint:ignore name1,name2 — optional justification
//
// suppresses diagnostics of the named analyzers. A trailing directive
// applies to its own line; a directive alone on a line applies to the next
// line (matching the placement conventions of //nolint and //lint:ignore).
// Every intentional exact float comparison and similar deliberate
// violation in the repo carries one, with the justification in the comment.

// ignoreKey names one suppression: diagnostics of analyzer name on line
// of file are dropped.
type ignoreKey struct {
	file string
	line int
	name string
}

// scanIgnores indexes the package's directives by (file, target line,
// analyzer name). srcs holds the parsed files' bytes by file name.
func (pkg *Package) scanIgnores(srcs map[string][]byte) {
	pkg.ignores = make(map[ignoreKey]bool)
	for _, f := range pkg.Files {
		fileName := pkg.Fset.Position(f.Pos()).Filename
		lines := strings.Split(string(srcs[fileName]), "\n")
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				target := pos.Line
				if onOwnLine(lines, pos.Line, pos.Column) {
					target++
				}
				for _, n := range names {
					pkg.ignores[ignoreKey{fileName, target, n}] = true
				}
			}
		}
	}
}

// parseIgnore extracts the analyzer names from a //dslint:ignore comment.
func parseIgnore(text string) ([]string, bool) {
	const prefix = "//dslint:ignore"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	field := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		field = rest[:i]
	}
	if field == "" {
		return nil, false
	}
	names := strings.Split(field, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names, true
}

// onOwnLine reports whether the comment starting at column col is the only
// content on its 1-based line.
func onOwnLine(lines []string, line, col int) bool {
	if line-1 < 0 || line-1 >= len(lines) {
		return false
	}
	return strings.TrimSpace(lines[line-1][:col-1]) == ""
}

// filterIgnored drops diagnostics suppressed by a directive.
func (pkg *Package) filterIgnored(diags []Diagnostic) []Diagnostic {
	if len(pkg.ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !pkg.ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return kept
}
