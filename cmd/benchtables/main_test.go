package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"southwell/internal/bench"
	"southwell/internal/dmem"
)

func TestValidateRejectsBadFlags(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "plain.txt")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ranks, steps, par int
		chaos             float64
		trace, metrics    string
		want              string
	}{
		{ranks: -1, want: "-ranks"},
		{steps: -5, want: "-steps"},
		{par: -2, want: "-par"},
		{chaos: -0.5, want: "-chaos"},
		{chaos: 2, want: "-chaos"},
		{chaos: math.NaN(), want: "-chaos"},
		{trace: file, want: "-trace"},
		{metrics: file, want: "-metrics"},
	}
	for _, tc := range cases {
		err := validate(tc.ranks, tc.steps, tc.par, tc.chaos, tc.trace, tc.metrics)
		if err == nil {
			t.Errorf("validate(%d,%d,%d,%g): accepted", tc.ranks, tc.steps, tc.par, tc.chaos)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not name the flag %q", err, tc.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("error is not one line: %q", err)
		}
	}
}

func TestValidateAcceptsGoodFlags(t *testing.T) {
	tmp := t.TempDir()
	for _, tc := range []struct {
		ranks, steps, par int
		chaos             float64
		trace, metrics    string
	}{
		{}, // all defaults
		{256, 120, 8, 0.5, "", ""},
		{ranks: 1, chaos: 1},               // boundary values
		{trace: tmp, metrics: tmp},         // existing directory is fine
		{trace: filepath.Join(tmp, "new")}, // missing directory: created later
	} {
		if err := validate(tc.ranks, tc.steps, tc.par, tc.chaos, tc.trace, tc.metrics); err != nil {
			t.Errorf("validate(%d,%d,%d,%g): %v", tc.ranks, tc.steps, tc.par, tc.chaos, err)
		}
	}
}

// TestParseLocSolver: gs, direct and pardiso parse; any other value, the
// retired auto included, makes benchtables exit 2 naming the valid ones.
func TestParseLocSolver(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want dmem.LocalSolver
	}{
		{"gs", dmem.LocalGS},
		{"direct", dmem.LocalDirect},
		{"pardiso", dmem.LocalDirect},
	} {
		got, err := dmem.ParseLocalSolver(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseLocalSolver(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"ilu", "auto"} {
		out, code := runMain(t, "-loc_solver", bad, "fig6")
		if code != 2 {
			t.Errorf("benchtables -loc_solver %s: exit status %d, want 2\n%s", bad, code, out)
		}
		for _, want := range []string{"-loc_solver", "gs", "direct", "pardiso"} {
			if !strings.Contains(out, want) {
				t.Errorf("benchtables -loc_solver %s: message does not name %q:\n%s", bad, want, out)
			}
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	cfg := bench.Config{Quick: true}
	if err := run(cfg, []string{"fig99"}, ""); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Errorf("unknown experiment not rejected by name: %v", err)
	}
	if err := run(cfg, nil, ""); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("empty experiment list not rejected with usage: %v", err)
	}
}

// TestScalingIsABenchTable: the scaling experiment writes exactly what
// bench.Scaling prints (no private harness in this command), and "all" still
// leaves it out.
func TestScalingIsABenchTable(t *testing.T) {
	cfg := bench.Config{Quick: true, Seed: 1}
	dir := t.TempDir()
	if err := run(cfg, []string{"scaling"}, dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "scaling.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bench.Scaling(&want, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("benchtables scaling is not bench.Scaling:\n%s\n--- want ---\n%s", got, want.Bytes())
	}
	if !allExcluded["scaling"] {
		t.Error("scaling is no longer excluded from all")
	}
}

// TestVerboseFlagIsGone: the flag package must reject benchtables -v (exit
// status 2) before any experiment runs.
func TestVerboseFlagIsGone(t *testing.T) {
	out, code := runMain(t, "-v", "fig6")
	if code != 2 {
		t.Errorf("benchtables -v: exit status %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "flag provided but not defined: -v") {
		t.Errorf("benchtables -v not rejected as an unknown flag:\n%s", out)
	}
}

// mainArgs, set in a child's environment, makes the test binary run
// benchtables with these space-separated arguments instead of the tests.
const mainArgs = "BENCHTABLES_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgs); ok {
		os.Args = append([]string{"benchtables"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as benchtables with args and returns
// its combined output and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgs+"="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}
