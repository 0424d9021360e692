package diversity_test

import (
	"fmt"
	"log"

	"diversity"
)

// ExampleNew shows the basic modelling loop: define the potential faults,
// read off the paper's equation-(1) means for one version and the
// 1-out-of-2 pair.
func ExampleNew() {
	fs, err := diversity.New([]diversity.Fault{
		{P: 0.1, Q: 0.02},
		{P: 0.05, Q: 0.04},
	})
	if err != nil {
		log.Fatal(err)
	}
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		log.Fatal(err)
	}
	mu2, err := fs.MeanPFD(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one version %.4f, 1-out-of-2 %.6f\n", mu1, mu2)
	// Output: one version 0.0040, 1-out-of-2 0.000300
}

// ExampleFaultSet_RiskRatio evaluates the paper's equation (10): the
// factor by which diversity reduces the risk of carrying any defeating
// fault.
func ExampleFaultSet_RiskRatio() {
	fs, err := diversity.New([]diversity.Fault{
		{P: 0.1, Q: 0.1},
		{P: 0.2, Q: 0.1},
	})
	if err != nil {
		log.Fatal(err)
	}
	ratio, err := fs.RiskRatio()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(N2>0)/P(N1>0) = %.4f\n", ratio)
	// Output: P(N2>0)/P(N1>0) = 0.1771
}

// ExampleTwoVersionBoundFromMoments reproduces the paper's Section-5.1
// worked example: µ1 = 0.01, σ1 = 0.001, pmax = 0.1, 84% confidence.
func ExampleTwoVersionBoundFromMoments() {
	bound, err := diversity.TwoVersionBoundFromMoments(0.01, 0.001, 0.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-version bound %.4f (one-version bound 0.0110)\n", bound)
	// Output: two-version bound 0.0013 (one-version bound 0.0110)
}

// ExampleSigmaBoundFactor regenerates the paper's Section-5.1 table.
func ExampleSigmaBoundFactor() {
	for _, pmax := range []float64{0.5, 0.1, 0.01} {
		factor, err := diversity.SigmaBoundFactor(pmax)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pmax %.2f -> %.3f\n", pmax, factor)
	}
	// Output:
	// pmax 0.50 -> 0.866
	// pmax 0.10 -> 0.332
	// pmax 0.01 -> 0.100
}

// ExampleFaultSet_ExactPFD computes the exact PFD distribution of a small
// model and reads a percentile reliability bound from it.
func ExampleFaultSet_ExactPFD() {
	fs, err := diversity.New([]diversity.Fault{
		{P: 0.5, Q: 0.125},
		{P: 0.5, Q: 0.25},
	})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := fs.ExactPFD(1)
	if err != nil {
		log.Fatal(err)
	}
	q, err := dist.Quantile(0.75)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(PFD = 0) = %.2f, 75th percentile = %.3f\n", dist.CDF(0), q)
	// Output: P(PFD = 0) = 0.25, 75th percentile = 0.250
}

// ExampleBudgetTrade compares spending a verification budget on one
// well-tested version versus two diverse, less-tested versions.
func ExampleBudgetTrade() {
	fs, err := diversity.New([]diversity.Fault{{P: 0.5, Q: 0.01}})
	if err != nil {
		log.Fatal(err)
	}
	single, diverse, err := diversity.BudgetTrade(fs, 2000, 500)
	if err != nil {
		log.Fatal(err)
	}
	winner := "diverse pair"
	if single < diverse {
		winner = "single version"
	}
	fmt.Printf("winner with a 500-demand diversity overhead: %s\n", winner)
	// Output: winner with a 500-demand diversity overhead: single version
}

// ExampleNewTwoProcess quantifies forced diversity: processes with
// anti-correlated weaknesses beat an unforced pair of the same average
// skill.
func ExampleNewTwoProcess() {
	a, err := diversity.FromSlices([]float64{0.3, 0.05}, []float64{0.05, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	b, err := diversity.FromSlices([]float64{0.05, 0.3}, []float64{0.05, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	tp, err := diversity.NewTwoProcess(a, b)
	if err != nil {
		log.Fatal(err)
	}
	ratio, _, _, err := tp.ForcedAdvantage()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forced diversity advantage: %.2fx\n", ratio)
	// Output: forced diversity advantage: 2.04x
}

// ExampleUpdatePrior performs a Bayesian assessment: the model prior over
// the system PFD, updated with failure-free operation.
func ExampleUpdatePrior() {
	fs, err := diversity.New([]diversity.Fault{{P: 0.4, Q: 0.01}})
	if err != nil {
		log.Fatal(err)
	}
	prior, err := diversity.PriorFromModel(fs, 256)
	if err != nil {
		log.Fatal(err)
	}
	post, err := diversity.UpdatePrior(prior, 1000, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(system fault-free) rose from %.3f to %.3f\n",
		1-0.16, post.ProbZero())
	// Output: P(system fault-free) rose from 0.840 to 1.000
}

// ExampleMonteCarlo_streaming cross-checks the model by simulation in
// streaming mode: memory stays constant however many replications run,
// and the summary methods read statistics exactly as in buffered mode.
// The output depends on the seed alone, whatever the worker count.
func ExampleMonteCarlo_streaming() {
	fs, err := diversity.New([]diversity.Fault{
		{P: 0.1, Q: 0.02},
		{P: 0.05, Q: 0.04},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := diversity.MonteCarlo(diversity.MonteCarloConfig{
		Process:   diversity.NewIndependentProcess(fs),
		Versions:  2,
		Reps:      100000,
		Seed:      1,
		Streaming: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	mu2, err := fs.MeanPFD(2)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := res.SystemSummary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %.6f, simulated %.6f over %d replications\n", mu2, sum.Mean, sum.N)
	// Output: model 0.000300, simulated 0.000307 over 100000 replications
}
