package montecarlo_test

import (
	"fmt"
	"log"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
)

// ExampleRun_streaming runs a simulation with constant-memory streaming
// aggregation: the result carries Agg values instead of raw samples, and
// VersionSummary/SystemSummary read the same statistics either way.
// The output depends on the seed alone, whatever the worker count.
func ExampleRun_streaming() {
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.2, Q: 0.05},
		{P: 0.4, Q: 0.1},
		{P: 0.1, Q: 0.2},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := montecarlo.Run(montecarlo.Config{
		Process:   devsim.NewIndependentProcess(fs),
		Versions:  2,
		Reps:      50000,
		Seed:      7,
		Streaming: true, // O(1) memory however large Reps grows
	})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := res.SystemSummary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replications %d, fault-free systems %d\n", res.Reps, res.SystemFaultFree)
	fmt.Printf("system PFD mean %.5f\n", sum.Mean)
	// Output:
	// replications 50000, fault-free systems 39899
	// system PFD mean 0.02002
}

// ExampleAgg shows the streaming aggregate on its own: observations fold
// in one at a time, shards merge, and quantiles read back at histogram
// resolution.
func ExampleAgg() {
	var shard1, shard2 montecarlo.Agg
	for _, v := range []float64{0, 0.001, 0.004} {
		shard1.Observe(v)
	}
	for _, v := range []float64{0.002, 0, 0.008} {
		shard2.Observe(v)
	}
	shard1.Merge(&shard2)
	med, err := shard1.Quantile(0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d zeros=%d min=%g max=%g median≈%.4f\n",
		shard1.N(), shard1.Zeros, shard1.Min, shard1.Max, med)
	// Output: n=6 zeros=2 min=0 max=0.008 median≈0.0010
}
