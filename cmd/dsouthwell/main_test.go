package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"southwell/internal/core"
	"southwell/internal/dmem"
)

type flagCase struct {
	name      string
	ranks     int
	sweepMax  int
	grid      int
	solver    string
	locSolver string
	target    float64
	chaos     float64
	trace     string
	metrics   string
	cpuProf   string
	memProf   string
}

func good() flagCase {
	return flagCase{ranks: 256, sweepMax: 20, grid: 100, solver: "sos_sds", locSolver: "gs"}
}

func (c flagCase) run() (options, error) {
	return validate(c.ranks, c.sweepMax, c.grid, c.solver, c.locSolver, c.target, c.chaos, 1, c.trace, c.metrics, c.cpuProf, c.memProf)
}

func TestValidateRejectsBadFlags(t *testing.T) {
	cases := []struct {
		mutate func(*flagCase)
		want   string
	}{
		{func(c *flagCase) { c.ranks = 0 }, "-n"},
		{func(c *flagCase) { c.ranks = -4 }, "-n"},
		{func(c *flagCase) { c.sweepMax = 0 }, "-sweep_max"},
		{func(c *flagCase) { c.grid = 1 }, "-grid"},
		{func(c *flagCase) { c.grid = 20725 }, "-grid"},
		{func(c *flagCase) { c.grid = 50000 }, "-grid"},
		{func(c *flagCase) { c.grid = 1 << 40 }, "-grid"},
		{func(c *flagCase) { c.target = -1 }, "-target"},
		{func(c *flagCase) { c.target = math.NaN() }, "-target"},
		{func(c *flagCase) { c.solver = "cg" }, "-solver"},
		{func(c *flagCase) { c.solver = "" }, "-solver"},
		{func(c *flagCase) { c.locSolver = "ilu" }, "-loc_solver"},
		{func(c *flagCase) { c.chaos = -0.1 }, "-chaos"},
		{func(c *flagCase) { c.chaos = 1.5 }, "-chaos"},
		{func(c *flagCase) { c.chaos = math.NaN() }, "-chaos"},
		{func(c *flagCase) { c.trace = "." }, "-trace"},
		{func(c *flagCase) { c.metrics = "." }, "-metrics"},
		{func(c *flagCase) { c.trace = "no/such/dir/t.json" }, "-trace"},
		{func(c *flagCase) { c.metrics = "no/such/dir/m.txt" }, "-metrics"},
		{func(c *flagCase) { c.trace, c.metrics = "same.out", "same.out" }, "-metrics"},
		{func(c *flagCase) { c.cpuProf = "." }, "-cpuprofile"},
		{func(c *flagCase) { c.memProf = "." }, "-memprofile"},
		{func(c *flagCase) { c.cpuProf = "no/such/dir/cpu.prof" }, "-cpuprofile"},
		{func(c *flagCase) { c.memProf = "no/such/dir/mem.prof" }, "-memprofile"},
		{func(c *flagCase) { c.trace, c.cpuProf = "same.out", "same.out" }, "-cpuprofile"},
		{func(c *flagCase) { c.metrics, c.memProf = "same.out", "same.out" }, "-memprofile"},
		{func(c *flagCase) { c.cpuProf, c.memProf = "same.out", "same.out" }, "-memprofile"},
	}
	for _, tc := range cases {
		c := good()
		tc.mutate(&c)
		_, err := c.run()
		if err == nil {
			t.Errorf("%+v: accepted", c)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not name the flag %q", c, err, tc.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%+v: error is not one line: %q", c, err)
		}
	}
}

func TestValidateAcceptsGoodFlags(t *testing.T) {
	c := good()
	o, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	if o.method != core.DistSWD || o.local != dmem.LocalGS || o.faults != nil {
		t.Errorf("defaults misparsed: %+v", o)
	}

	c.solver, c.locSolver = "pb16", "pardiso"
	if o, err = c.run(); err != nil {
		t.Fatal(err)
	}
	if o.method != core.Piggyback2016 || o.local != dmem.LocalDirect {
		t.Errorf("aliases misparsed: %+v", o)
	}

	c = good()
	c.grid = 20724 // the largest: 5·20724² − 4·20724 = 2 147 337 984 entries
	if _, err = c.run(); err != nil {
		t.Errorf("-grid 20724 rejected: %v", err)
	}

	c = good()
	c.chaos = 0.25
	if o, err = c.run(); err != nil {
		t.Fatal(err)
	}
	if o.faults == nil || o.faults.DelayProb != 0.25 {
		t.Errorf("chaos plan not built: %+v", o.faults)
	}

	// Distinct trace/metrics files into an existing directory are fine, as
	// is overwriting an existing regular file.
	c = good()
	dir := t.TempDir()
	existing := filepath.Join(dir, "old.trace.json")
	if err := os.WriteFile(existing, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.trace = existing
	c.metrics = filepath.Join(dir, "run.metrics.txt")
	if _, err = c.run(); err != nil {
		t.Errorf("valid trace/metrics paths rejected: %v", err)
	}
}

// TestLocSolverAutoExits2: the retired -loc_solver auto is rejected like any
// unknown value, with exit status 2 and a message naming the valid ones.
func TestLocSolverAutoExits2(t *testing.T) {
	const child = "DSOUTHWELL_TEST_MAIN"
	if os.Getenv(child) == "1" {
		os.Args = []string{"dsouthwell", "-loc_solver", "auto"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLocSolverAutoExits2$")
	cmd.Env = append(os.Environ(), child+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("dsouthwell -loc_solver auto: err = %v, want exit status 2\n%s", err, out)
	}
	for _, want := range []string{"-loc_solver", "gs", "direct", "pardiso"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("dsouthwell -loc_solver auto: message does not name %q:\n%s", want, out)
		}
	}
}

// TestProfilesSurviveErrorExit: a run that fails after the profiles start
// (here an unknown -mat) still exits 1 with a CPU and a heap profile
// written, not a 0-byte CPU profile and no heap profile.
func TestProfilesSurviveErrorExit(t *testing.T) {
	const child = "DSOUTHWELL_TEST_PROFILE_DIR"
	if dir := os.Getenv(child); dir != "" {
		os.Args = []string{"dsouthwell", "-cpuprofile", filepath.Join(dir, "cpu"),
			"-memprofile", filepath.Join(dir, "mem"), "-mat", "nosuch"}
		main()
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestProfilesSurviveErrorExit$")
	cmd.Env = append(os.Environ(), child+"="+dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("dsouthwell -mat nosuch: err = %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "nosuch") {
		t.Errorf("dsouthwell -mat nosuch: message does not name the matrix:\n%s", out)
	}
	for _, name := range []string{"cpu", "mem"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s profile: %v", name, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s profile is empty", name)
		}
	}
}

// TestMemProfileFailureExits: a -memprofile path whose directory is missing
// is refused up front with exit status 2 naming the flag, before anything
// runs; one that passes the check but cannot be created when the run ends
// (a dangling symlink) turns the run's status into 1. Both used to run the
// whole job and exit 0.
func TestMemProfileFailureExits(t *testing.T) {
	const child = "DSOUTHWELL_TEST_MEMPROFILE"
	if path := os.Getenv(child); path != "" {
		os.Args = []string{"dsouthwell", "-grid", "10", "-n", "4", "-sweep_max", "2", "-memprofile", path}
		main()
		return
	}
	dir := t.TempDir()
	dangling := filepath.Join(dir, "mem.prof")
	if err := os.Symlink(filepath.Join(dir, "gone", "mem.prof"), dangling); err != nil {
		t.Skipf("cannot make a symlink: %v", err)
	}
	for _, tc := range []struct {
		path string
		code int
		ran  bool
	}{
		{filepath.Join(dir, "no", "such", "mem.prof"), 2, false},
		{dangling, 1, true},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMemProfileFailureExits$")
		cmd.Env = append(os.Environ(), child+"="+tc.path)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("dsouthwell -memprofile %s: err = %v, want exit status %d\n%s", tc.path, err, tc.code, out)
		}
		if !strings.Contains(string(out), "-memprofile") {
			t.Errorf("dsouthwell -memprofile %s: message does not name the flag:\n%s", tc.path, out)
		}
		if ran := strings.Contains(string(out), "residual norm:"); ran != tc.ran {
			t.Errorf("dsouthwell -memprofile %s: solve ran = %v, want %v\n%s", tc.path, ran, tc.ran, out)
		}
	}
}

// TestAsymmetricMatrixExits1: a general Matrix Market file whose entry
// (1,2) has no (2,1) (testdata/asymmetric.mtx, 1-based) is refused with
// exit status 1 and a message naming the entry, 0-based, at one rank and at
// two under Block Jacobi. It used to run to exit 0, reporting a residual
// norm of 1.6e-19 and 1.7e-12.
func TestAsymmetricMatrixExits1(t *testing.T) {
	const child = "DSOUTHWELL_TEST_ASYMMETRIC_ARGS"
	if args := os.Getenv(child); args != "" {
		os.Args = append([]string{"dsouthwell", "-mat_file", filepath.Join("testdata", "asymmetric.mtx")}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-n 1", "-n 2 -solver bj"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestAsymmetricMatrixExits1$")
		cmd.Env = append(os.Environ(), child+"="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("dsouthwell %s: err = %v, want exit status 1\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "entry (0, 1) has no mirror (1, 0)") {
			t.Errorf("dsouthwell %s: message does not name the entry:\n%s", args, out)
		}
	}
}
