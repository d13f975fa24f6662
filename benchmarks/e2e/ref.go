package main

import (
	"math/rand"
	"time"
)

// refKernel is the harness's own yardstick for the host's speed: a fixed
// sparse gather small enough to stay in the core's own cache (120k
// nonzeros, 1.5 MB), swept ten times. The shared 2-vCPU box drifts between a
// fast and a ~25% slower state every few seconds (README, "Noise"); a solve
// and the reference runs on either side of it see the same state, so their
// ratio holds still where the raw time does not. A cache-resident kernel
// tracked three of the four workloads to within 2-3% and wide4k to ~9%; one
// sized past the cache (14 MB) tracked wide4k no better and the others far
// worse, because its own time then depends on what the solve left in the
// cache. It lives in the benchmark so that no change to the solver can move
// it.
type refKernel struct {
	idx  []int32
	val  []float64
	x    []float64
	sink float64
}

// refNominalS is the reference kernel's time on the calibration host in its
// fast state. Normalised seconds are ratio × refNominalS: what the solve
// would have read with the host in that state.
const refNominalS = 0.0012

func newRefKernel() *refKernel {
	const rows, perRow, band = 6_000, 20, 2_000
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{idx: make([]int32, rows*perRow), val: make([]float64, rows*perRow), x: make([]float64, rows)}
	for i := range k.idx {
		k.idx[i] = int32((i/perRow + rng.Intn(band)) % rows)
		k.val[i] = rng.Float64()
	}
	for i := range k.x {
		k.x[i] = rng.Float64()
	}
	return k
}

func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	s := 0.0
	for sweep := 0; sweep < 10; sweep++ {
		for i, j := range k.idx {
			s += k.val[i] * k.x[j]
		}
	}
	k.sink = s
	return time.Since(t0)
}
