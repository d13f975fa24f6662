package main

import (
	"io"
	"strings"
	"testing"
)

// TestModuleLintClean lints the whole module, so tier-1 alone (`go build
// ./... && go test ./...`) fails on a detrand, maporder or floatcmp
// finding — no make target needed.
func TestModuleLintClean(t *testing.T) {
	var out strings.Builder
	if code := lint("../..", []string{"./..."}, &out, io.Discard); code != 0 || out.Len() != 0 {
		t.Fatalf("dslint ./... exited %d, want 0 and no output; findings:\n%s", code, out.String())
	}
}

func TestLintCleanPackage(t *testing.T) {
	if code := lint(".", []string{"southwell/internal/analysis/lintutil"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("lint on a clean package exited %d, want 0", code)
	}
	if code := lint(".", []string{"southwell/internal/no/such/package"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("lint on a bogus pattern exited %d, want 2", code)
	}
}
