// dslint machine-checks the repo's determinism invariants: the
// project-specific rules that no generic linter knows (DESIGN.md §8). It is a multichecker in the style of
// golang.org/x/tools/go/analysis, built on the repo's offline analysis
// framework (internal/analysis/framework): load the packages, run three
// single-pass analyzers over each, sort, print. A whole-module run takes
// about half a second, nearly all of it `go list`.
//
// Usage:
//
//	go run ./cmd/dslint [packages]
//
// Packages default to ./.... Each finding prints as
// file:line:col: analyzer: message, sorted, so two runs over the same tree
// produce byte-identical output. The exit status is 1 when there are
// findings, 2 when loading or analysis itself failed, 0 when clean.
// Intentional violations are suppressed in source with
// //dslint:ignore <analyzer> comments carrying a justification.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"southwell/internal/analysis/detrand"
	"southwell/internal/analysis/floatcmp"
	"southwell/internal/analysis/framework"
	"southwell/internal/analysis/maporder"
)

// analyzers is the whole suite. Each inspects one package on its own, so
// the order is only the order of -help.
var analyzers = []*framework.Analyzer{
	detrand.Analyzer,
	maporder.Analyzer,
	floatcmp.Analyzer,
}

func main() {
	help := flag.Bool("help", false, "print the analyzer descriptions and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dslint [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Machine-checks the simulator's determinism invariants.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *help {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(lint(".", flag.Args(), os.Stdout, os.Stderr))
}

// lint runs the analyzers over the patterns (resolved relative to dir) and
// prints the findings; it returns the process exit status.
func lint(dir string, patterns []string, out, errOut io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(errOut, "dslint: %v\n", err)
		return 2
	}
	var diags []framework.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			found, err := framework.Run(a, pkg)
			if err != nil {
				fmt.Fprintf(errOut, "dslint: %v\n", err)
				return 2
			}
			diags = append(diags, found...)
		}
	}
	framework.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "dslint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
