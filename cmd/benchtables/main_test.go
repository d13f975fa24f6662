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
	// profile at x), and a profile inside -out's directory ran and exited 0
	// with the profile written over the table's file.
	tmp := t.TempDir()
	file := filepath.Join(tmp, "plain.txt")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	x, y, table := filepath.Join(tmp, "x"), filepath.Join(tmp, "y"), filepath.Join(tmp, "table4.txt")
	for _, args := range [][]string{{"-seed", "0"}, {"-chaos-seed", "0"},
		{"-out", file}, {"-metrics", file}, {"-cpuprofile", tmp},
		{"-memprofile", filepath.Join(tmp, "no", "mem.prof")}, {"-memprofile", filepath.Join(file, "mem.prof")},
		{"-out", x, "-cpuprofile", x}, {"-trace", y, "-memprofile", y}, {"-out", tmp, "-cpuprofile", table}} {
		out, code := runMain(t, append(append([]string{"-quick"}, args...), "table4")...)
		for i := 0; i < len(args); i += 2 {
			if code != 2 || !strings.Contains(out, args[i]+" ") || strings.Contains(out, "====") {
				t.Errorf("benchtables %s: exit status %d, want 2 naming %s before any experiment\n%s", strings.Join(args, " "), code, args[i], out)
			}
		}
	}
	for _, path := range []string{x, y, table} {
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
// bench.Scaling prints (no private harness in this command), by name and
// as one of "all", which writes one file per experiment.
func TestScalingIsABenchTable(t *testing.T) {
	cfg := bench.Config{Quick: true, Seed: 1}
	var want bytes.Buffer
	if err := bench.Scaling(&want, cfg); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []string{"scaling", "all"} {
		dir := t.TempDir()
		if err := run(cfg, []string{arg}, dir); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "scaling.txt"))
		if err != nil {
			t.Fatalf("benchtables %s: %v", arg, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("benchtables %s: scaling.txt is not bench.Scaling:\n%s\n--- want ---\n%s", arg, got, want.Bytes())
		}
		if files, _ := os.ReadDir(dir); arg == "all" && len(files) != len(experiments) {
			t.Errorf("benchtables all wrote %d files, want %d", len(files), len(experiments))
		}
	}
}

// TestVerboseFlagIsGone: the flag package must reject each retired flag
// (exit status 2) before any experiment runs: -v, the two engine switches
// that never changed a result, -goroutines and -active, the run-set width
// -par (GOMAXPROCS sets it), and the driver-wide -loc_solver (every suite
// run relaxes with one Gauss-Seidel sweep; dsouthwell keeps the flag).
func TestVerboseFlagIsGone(t *testing.T) {
	for _, arg := range []string{"-v", "-goroutines", "-active=false", "-par=4", "-loc_solver=gs"} {
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
