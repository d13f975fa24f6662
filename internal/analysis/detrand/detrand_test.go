package detrand_test

import (
	"testing"

	"southwell/internal/analysis/analysistest"
	"southwell/internal/analysis/detrand"
)

func TestDetrand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detrand.Analyzer,
		"internal/rma",      // deterministic package: violations flagged
		"internal/parallel", // kernel fan-out layer: same scope
		"internal/obs",      // observability layer: simulated-clock only
		"internal/sparse",   // any other package under internal/: same scope
		"other",             // out of scope: same calls, no diagnostics
	)
}
