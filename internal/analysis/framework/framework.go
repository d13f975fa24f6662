// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis model: an Analyzer inspects one
// type-checked package at a time and reports position-tagged diagnostics.
//
// The x/tools module is deliberately not used — the repo builds offline
// from the standard library alone — so this package provides the three
// pieces dslint needs: the Analyzer/Pass/Diagnostic vocabulary (this file),
// a package loader that type-checks the module's sources against compiler
// export data produced by `go list -export` (load.go), and suppression
// directives (`//dslint:ignore <name>`) for the rare intentional violation
// (directive.go). The sibling package internal/analysis/analysistest plays
// the role of x/tools' analysistest for fixture-driven analyzer tests.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects the package behind pass and
// reports findings through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dslint:ignore directives. It must be a single lowercase word.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces,
	// shown by `dslint -help`.
	Doc string
	// Run performs the check. A non-nil error aborts the run (it means the
	// analyzer itself failed, not that the code has findings).
	Run func(*Pass) error
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies one analyzer to one loaded package and returns its findings,
// with //dslint:ignore-suppressed diagnostics already removed and the rest
// ordered by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.Path, err)
	}
	diags := pkg.filterIgnored(pass.diags)
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diags by (file, line, column, analyzer, message)
// — dslint's canonical deterministic output order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}
