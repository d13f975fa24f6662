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
	// Every case but the seed rows sets both seeds to their default, 1, so
	// it fails on the one flag it names.
	cases := []struct {
		ranks, steps    int
		seed, chaosSeed int64
		chaos           float64
		want            string
	}{
		{ranks: -1, seed: 1, chaosSeed: 1, want: "-ranks"},
		{steps: -5, seed: 1, chaosSeed: 1, want: "-steps"},
		{seed: 0, chaosSeed: 1, want: "-seed"},
		{seed: 1, chaosSeed: 0, want: "-chaos-seed"},
		{chaos: -0.5, seed: 1, chaosSeed: 1, want: "-chaos"},
		{chaos: 2, seed: 1, chaosSeed: 1, want: "-chaos"},
		{chaos: math.NaN(), seed: 1, chaosSeed: 1, want: "-chaos"},
	}
	for _, tc := range cases {
		err := validate(tc.ranks, tc.steps, tc.seed, tc.chaosSeed, tc.chaos, "", "", "", "", "")
		if err == nil {
			t.Errorf("validate(%+v): accepted", tc)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not name the flag %q", err, tc.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("error is not one line: %q", err)
		}
	}
	// The binary refuses them with exit status 2 before any experiment
	// runs, naming every flag involved. The output paths go through
	// cli.CheckOutputs (its own test holds every refusal): one row per
	// check, each flag named at least once. The two shared paths used to
	// pass the check, run and exit 1 (-out x -cpuprofile x leaving a CPU
	// profile at x).
	tmp := t.TempDir()
	file := filepath.Join(tmp, "plain.txt")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	x, y := filepath.Join(tmp, "x"), filepath.Join(tmp, "y")
	for _, args := range [][]string{{"-seed", "0"}, {"-chaos-seed", "0"},
		{"-out", file}, {"-metrics", file}, {"-cpuprofile", tmp},
		{"-memprofile", filepath.Join(tmp, "no", "mem.prof")}, {"-memprofile", filepath.Join(file, "mem.prof")},
		{"-out", x, "-cpuprofile", x}, {"-trace", y, "-memprofile", y}} {
		out, code := runMain(t, append(append([]string{"-quick"}, args...), "table4")...)
		for i := 0; i < len(args); i += 2 {
			if code != 2 || !strings.Contains(out, args[i]+" ") || strings.Contains(out, "====") {
				t.Errorf("benchtables %s: exit status %d, want 2 naming %s before any experiment\n%s", strings.Join(args, " "), code, args[i], out)
			}
		}
	}
	for _, path := range []string{x, y} {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s: a refused shared path was written", path)
		}
	}
}

func TestValidateAcceptsGoodFlags(t *testing.T) {
	tmp := t.TempDir()
	for _, tc := range []struct {
		ranks, steps        int
		seed, chaosSeed     int64
		chaos               float64
		out, trace, metrics string
	}{
		{seed: 1, chaosSeed: 1}, // all defaults
		{256, 120, 7, 42, 0.5, "", "", ""},
		{ranks: 1, seed: -3, chaosSeed: -1, chaos: 1},               // boundary values; a negative seed is a seed
		{seed: 1, chaosSeed: 1, out: tmp, trace: tmp, metrics: tmp}, // existing directory is fine
		{seed: 1, chaosSeed: 1, out: filepath.Join(tmp, "new")},     // missing directory: created later
		{seed: 1, chaosSeed: 1, trace: filepath.Join(tmp, "new")},
	} {
		if err := validate(tc.ranks, tc.steps, tc.seed, tc.chaosSeed, tc.chaos, tc.out, tc.trace, tc.metrics, "", ""); err != nil {
			t.Errorf("validate(%+v): %v", tc, err)
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

// TestMemProfileWriteFailureExits1: a -memprofile path that passes the
// up-front check but cannot be created when the experiments end (a
// dangling symlink) makes benchtables exit 1 naming the flag, after the
// tables were printed. It used to exit 0.
func TestMemProfileWriteFailureExits1(t *testing.T) {
	dir := t.TempDir()
	dangling := filepath.Join(dir, "mem.prof")
	if err := os.Symlink(filepath.Join(dir, "gone", "mem.prof"), dangling); err != nil {
		t.Skipf("cannot make a symlink: %v", err)
	}
	out, code := runMain(t, "-quick", "-memprofile", dangling, "fig6")
	if code != 1 || !strings.Contains(out, "-memprofile") || !strings.Contains(out, "==== fig6 ====") {
		t.Errorf("benchtables -memprofile %s: exit status %d, want 1 naming the flag after the table\n%s", dangling, code, out)
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

// TestVerboseFlagIsGone: the flag package must reject each retired flag
// (exit status 2) before any experiment runs: -v, the two engine switches
// that never changed a result, -goroutines and -active, and the run-set
// width -par (GOMAXPROCS sets it).
func TestVerboseFlagIsGone(t *testing.T) {
	for _, arg := range []string{"-v", "-goroutines", "-active=false", "-par=4"} {
		out, code := runMain(t, arg, "fig6")
		if code != 2 {
			t.Errorf("benchtables %s: exit status %d, want 2\n%s", arg, code, out)
		}
		name, _, _ := strings.Cut(arg, "=")
		if !strings.Contains(out, "flag provided but not defined: "+name) {
			t.Errorf("benchtables %s not rejected as an unknown flag:\n%s", arg, out)
		}
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
