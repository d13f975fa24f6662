// Fixture: a package under internal/ that is not part of the simulated
// runtime. The scope rule is "everything under internal/ but the
// analyzers", so a kernel that times itself or draws from global
// randomness is flagged here exactly as it is in internal/rma.
package sparse

import (
	"math/rand"
	"time"
)

func timedNorm(x []float64) (float64, time.Duration) {
	start := time.Now() // want `wall-clock dependence \(time\.Now\) in deterministic package internal/sparse`
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s, time.Since(start) // want `wall-clock dependence \(time\.Since\)`
}

func randomProbe(n int) int {
	return rand.Intn(n) // want `global math/rand state \(rand\.Intn\) in deterministic package internal/sparse`
}

// seededProbe threads a caller-seeded generator: allowed.
func seededProbe(rng *rand.Rand, n int) int {
	return rng.Intn(n)
}
