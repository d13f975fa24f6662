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
}

func good() flagCase {
	return flagCase{ranks: 256, sweepMax: 20, grid: 100, solver: "sos_sds", locSolver: "gs"}
}

func (c flagCase) run() (options, error) {
	return validate(c.ranks, c.sweepMax, c.grid, c.solver, c.locSolver, c.target, c.chaos, 1, c.trace, c.metrics)
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
