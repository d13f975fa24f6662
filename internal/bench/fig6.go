package bench

import (
	"io"

	"southwell/internal/multigrid"
	"southwell/internal/problem"
)

// Fig6 regenerates Figure 6: relative residual norm after 9 V-cycles of
// multigrid on the 2D Poisson equation, for grid dimensions 15..255, with
// Gauss-Seidel (1 sweep) vs Distributed Southwell (1/2 sweep and 1 sweep)
// smoothing. The expected shape: all three curves are flat (grid-size
// independent) and Distributed Southwell is at least as effective per
// relaxation as Gauss-Seidel.
func Fig6(w io.Writer, cfg Config) error {
	grids := []int{15, 31, 63, 127, 255}
	if cfg.Quick {
		grids = []int{15, 31, 63}
	}
	smoothers := []multigrid.Smoother{
		multigrid.GaussSeidel{},
		multigrid.DistSW{SweepFraction: 0.5, Seed: cfg.seed()},
		multigrid.DistSW{SweepFraction: 1, Seed: cfg.seed()},
	}
	fprintf(w, "# Figure 6: rel. residual norm after 9 V-cycles, 2D Poisson\n")
	fprintf(w, "%-8s", "grid")
	for _, s := range smoothers {
		fprintf(w, " %18s", s.Name())
	}
	fprintf(w, "\n")
	for _, nx := range grids {
		fprintf(w, "%-8d", nx)
		for _, s := range smoothers {
			h, err := multigrid.New(nx, s)
			if err != nil {
				return err
			}
			n := nx * nx
			b := problem.RandomVec(n, cfg.seed())
			x := make([]float64, n)
			hist := h.Solve(b, x, 9)
			fprintf(w, " %18.3e", hist[len(hist)-1])
		}
		fprintf(w, "\n")
	}
	return nil
}
