// Scaling example (Figures 8 and 9 of the paper): sweep the simulated
// process count on one suite matrix and watch Block Jacobi degrade while
// Parallel and Distributed Southwell stay stable, with Distributed
// Southwell needing the least communication throughout.
package main

import (
	"fmt"
	"log"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/partition"
	"southwell/internal/problem"
)

func main() {
	entry, ok := problem.SuiteByName("msdoor")
	if !ok {
		log.Fatal("suite matrix missing")
	}
	a := entry.Build()
	fmt.Printf("%s stand-in: n=%d, nnz=%d; 50 parallel steps per run\n\n", entry.Name, a.N, a.NNZ())
	fmt.Printf("%6s | %12s %12s %12s | %10s %10s\n",
		"ranks", "BJ ||r||", "PS ||r||", "DS ||r||", "PS msgs/p", "DS msgs/p")

	for _, ranks := range []int{8, 16, 32, 64, 128, 256} {
		// One setup per rank count — partition, layout, local solver — shared
		// by the three methods: each solve reuses it instead of partitioning
		// again.
		l, err := dmem.NewLayout(a, partition.Partition(a, ranks, partition.Options{}), ranks)
		if err != nil {
			log.Fatal(err)
		}
		setup, err := dmem.NewSetup(l, dmem.LocalGS)
		if err != nil {
			log.Fatal(err)
		}
		var norms [3]float64
		var comm [3]float64
		for i, m := range []core.DistMethod{core.BlockJacobi, core.ParallelSWD, core.DistSWD} {
			b, x := problem.ZeroBSystem(a, 1)
			res, err := core.SolveDistributed(a, b, x, core.DistOptions{
				Method: m, Ranks: ranks, Steps: 50, Setup: setup,
			})
			if err != nil {
				log.Fatal(err)
			}
			norms[i] = res.Final().ResNorm
			comm[i] = res.Stats.CommCost(ranks)
		}
		fmt.Printf("%6d | %12.4g %12.4g %12.4g | %10.1f %10.1f\n",
			ranks, norms[0], norms[1], norms[2], comm[1], comm[2])
	}
	fmt.Println("\nBlock Jacobi's 50-step residual grows with the rank count (values")
	fmt.Println("above 1 mean divergence); the Southwell methods degrade mildly.")
}
