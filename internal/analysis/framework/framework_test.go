package framework

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		ok    bool
	}{
		{"//dslint:ignore floatcmp", []string{"floatcmp"}, true},
		{"//dslint:ignore floatcmp — intentional", []string{"floatcmp"}, true},
		{"//dslint:ignore detrand,floatcmp reason", []string{"detrand", "floatcmp"}, true},
		{"//dslint:ignore", nil, false},
		{"// dslint:ignore floatcmp", nil, false}, // directives have no space
		{"// plain comment", nil, false},
	}
	for _, c := range cases {
		names, ok := parseIgnore(c.text)
		if ok != c.ok || (ok && !reflect.DeepEqual(names, c.names)) {
			t.Errorf("parseIgnore(%q) = %v, %v; want %v, %v", c.text, names, ok, c.names, c.ok)
		}
	}
}

func TestOnOwnLine(t *testing.T) {
	lines := []string{
		"\t//dslint:ignore floatcmp",
		"\tif a != b { //dslint:ignore floatcmp",
	}
	if !onOwnLine(lines, 1, 2) {
		t.Errorf("line 1: directive alone on its line not recognized")
	}
	if onOwnLine(lines, 2, 14) {
		t.Errorf("line 2: trailing directive misclassified as own-line")
	}
}

// TestLoadAndRun loads a real module package through the export-data
// importer and checks that analyzers see type-checked syntax and that
// directive suppression filters diagnostics.
func TestLoadAndRun(t *testing.T) {
	pkgs, err := Load(".", "southwell/internal/analysis/lintutil")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types == nil || pkg.Types.Scope().Lookup("IsDeterministic") == nil {
		t.Fatalf("package %s type-checked without IsDeterministic in scope", pkg.Path)
	}

	funcs := 0
	probe := &Analyzer{
		Name: "probe",
		Doc:  "reports every function declaration",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						funcs++
						pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
	diags, err := Run(probe, pkg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if funcs == 0 || len(diags) != funcs {
		t.Fatalf("probe reported %d diagnostics for %d functions", len(diags), funcs)
	}
	for _, d := range diags {
		if d.Analyzer != "probe" || d.Pos.Line <= 0 || !strings.HasSuffix(d.Pos.Filename, ".go") {
			t.Errorf("malformed diagnostic: %s", d)
		}
	}

	// Suppression: mark every diagnostic line ignored and re-run.
	for _, d := range diags {
		pkg.ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, "probe"}] = true
	}
	diags, err = Run(probe, pkg)
	if err != nil {
		t.Fatalf("Run (suppressed): %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("suppressed run still reported %d diagnostics", len(diags))
	}
}
