package bench

import (
	"fmt"
	"io"

	"southwell/internal/core"
	"southwell/internal/rma"
)

// chaosLevel is one fault intensity of the robustness sweep: every message
// is independently held back with probability prob by 1..max extra phases.
type chaosLevel struct {
	prob float64
	max  int
}

// chaosLevels is the intensity ladder of the Chaos study, from a perfect
// network to half of all messages delayed by up to 4 phases (more than a
// full parallel step for the three-phase methods).
var chaosLevels = []chaosLevel{{0, 0}, {0.1, 2}, {0.25, 3}, {0.5, 4}}

func (c Config) chaosSeed() int64 {
	if c.ChaosSeed != 0 {
		return c.ChaosSeed
	}
	return 1
}

// withDelay returns a config copy whose runs see delay faults at the given
// level (the zero level is the unmodified perfect network).
func (c Config) withDelay(lv chaosLevel) Config {
	if lv.prob > 0 {
		c.Faults = rma.DelayPlan(c.chaosSeed(), lv.prob, lv.max)
	}
	return c
}

// Chaos is the robustness study introduced with the fault-injection layer
// (no paper counterpart): it sweeps delay-fault intensity over the suite
// and reports, per (matrix, intensity, method), the parallel steps to the
// paper's 0.1 target and the stagnation-watchdog verdict. It extends the
// §2.4 dichotomy to imperfect networks: Distributed Southwell keeps
// converging without ever tripping the watchdog (late estimates are
// corrected by the next explicit update), while the 2016 piggyback variant
// still stagnates and is detected.
func Chaos(out io.Writer, cfg Config) error {
	ranks := cfg.ranks()
	steps := cfg.stepsOr(120)
	methods := []core.DistMethod{core.BlockJacobi, core.ParallelSWD, core.DistSWD, core.Piggyback2016}
	fprintf(out, "# Chaos robustness study: independent per-message delivery delays\n")
	fprintf(out, "# plan: rma.DelayPlan(seed=%d, prob, max); %d ranks, %d-step budget, target %.2g\n",
		cfg.chaosSeed(), ranks, steps, Target)
	fprintf(out, "# cell: steps to target (log-interpolated, † = not reached) + verdict\n")
	fprintf(out, "# verdict: ok = converging, dl@s = watchdog stop at step s\n")
	fprintf(out, "%-12s %-13s", "matrix", "delay(p,max)")
	for _, m := range methods {
		fprintf(out, " | %14s", string(m))
	}
	fprintf(out, "\n")
	levels := make([]suiteRuns, len(chaosLevels))
	for l, lv := range chaosLevels {
		var err error
		if levels[l], err = runSet(cfg.withDelay(lv), cfg.suiteNames(), methods, []int{ranks}, steps); err != nil {
			return err
		}
	}
	for n, name := range cfg.suiteNames() {
		for l, lv := range chaosLevels {
			fprintf(out, "%-12s p=%.2f,k=%-3d", name, lv.prob, lv.max)
			for i := range methods {
				res := levels[l].at(n, 0, i)
				s, ok := res.StepsToNorm(Target)
				verdict := "ok"
				if res.Deadlocked {
					verdict = fmt.Sprintf("dl@%d", res.DeadlockStep)
				}
				fprintf(out, " | %6s %7s", dagger(s, ok, "%.1f"), verdict)
			}
			fprintf(out, "\n")
		}
	}
	return nil
}
