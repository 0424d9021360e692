package montecarlo

import (
	"context"
	"fmt"
	"math"
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/scenario"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

func rareFaultSet(t *testing.T) *faultmodel.FaultSet {
	t.Helper()
	// Safety-grade-like: P(N2>0) is of order 1e-5.
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.003, Q: 0.001},
		{P: 0.002, Q: 0.002},
		{P: 0.001, Q: 0.001},
		{P: 0.0005, Q: 0.003},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

func TestEstimateRareSystemFaultUnbiased(t *testing.T) {
	t.Parallel()

	fs := rareFaultSet(t)
	truth, err := fs.PAnyFault(2)
	if err != nil {
		t.Fatalf("PAnyFault: %v", err)
	}
	if truth > 1e-4 {
		t.Fatalf("fixture is not rare enough: P = %v", truth)
	}
	est, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 50000, 7, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	if math.Abs(est.Probability-truth) > 5*est.StdErr+1e-12 {
		t.Errorf("IS estimate %v ± %v vs truth %v", est.Probability, est.StdErr, truth)
	}
	// The tilt makes the event common under the sampling measure.
	if est.HitFraction < 0.2 {
		t.Errorf("hit fraction %v, want the tilt to make events common", est.HitFraction)
	}
	// Relative precision must be far better than naive MC could achieve
	// at this replication count (naive would see ~0.7 events).
	if est.StdErr/truth > 0.2 {
		t.Errorf("relative std err %v, want < 0.2", est.StdErr/truth)
	}
}

func TestEstimateRareMatchesModerateProbability(t *testing.T) {
	t.Parallel()

	// Sanity on a non-rare set: both estimators must agree with the
	// closed form.
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.3, Q: 0.1},
		{P: 0.2, Q: 0.1},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	truth, err := fs.PAnyFault(2)
	if err != nil {
		t.Fatalf("PAnyFault: %v", err)
	}
	is, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 100000, 3, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	if math.Abs(is.Probability-truth) > 5*is.StdErr+1e-9 {
		t.Errorf("IS estimate %v ± %v vs truth %v", is.Probability, is.StdErr, truth)
	}
	naive, err := EstimateNaiveSystemFaultOpts(context.Background(), fs, 2, 100000, 3, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateNaiveSystemFaultOpts: %v", err)
	}
	if math.Abs(naive.Probability-truth) > 5*naive.StdErr+1e-9 {
		t.Errorf("naive estimate %v ± %v vs truth %v", naive.Probability, naive.StdErr, truth)
	}
}

func TestEstimateRareVarianceReduction(t *testing.T) {
	t.Parallel()

	fs := rareFaultSet(t)
	const reps = 20000
	is, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, reps, 11, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	naive, err := EstimateNaiveSystemFaultOpts(context.Background(), fs, 2, reps, 11, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateNaiveSystemFaultOpts: %v", err)
	}
	// Naive MC at 2e4 reps almost surely sees zero events (P ~ 1e-5 for
	// versions, ~1e-8 at system level), so its estimate/error are
	// useless; importance sampling still resolves the probability.
	truth, err := fs.PAnyFault(2)
	if err != nil {
		t.Fatalf("PAnyFault: %v", err)
	}
	if is.StdErr <= 0 {
		t.Fatal("IS std err not positive")
	}
	if is.StdErr/truth > 0.5 {
		t.Errorf("IS relative error %v too large", is.StdErr/truth)
	}
	if naive.Probability != 0 && naive.StdErr < is.StdErr {
		t.Errorf("naive MC outperformed IS on a rare event: naive %v ± %v, IS %v ± %v",
			naive.Probability, naive.StdErr, is.Probability, is.StdErr)
	}
}

func TestEstimateRareImpossibleFaults(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0, Q: 0.1},
		{P: 0.001, Q: 0.1},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	truth, err := fs.PAnyFault(2)
	if err != nil {
		t.Fatalf("PAnyFault: %v", err)
	}
	est, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 20000, 5, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	if math.Abs(est.Probability-truth) > 5*est.StdErr+1e-12 {
		t.Errorf("estimate %v ± %v vs truth %v", est.Probability, est.StdErr, truth)
	}
}

func TestEstimateRareAllZero(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{{P: 0, Q: 0.1}})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	est, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 1000, 1, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	if est.Probability != 0 || est.HitFraction != 0 {
		t.Errorf("zero set gave estimate %+v", est)
	}
}

func TestEstimateRareValidation(t *testing.T) {
	t.Parallel()

	fs := rareFaultSet(t)
	if _, err := EstimateRareSystemFaultOpts(context.Background(), nil, 2, 100, 1, 0.3, RareOptions{}); err == nil {
		t.Error("nil fault set succeeded, want error")
	}
	if _, err := EstimateRareSystemFaultOpts(context.Background(), fs, 0, 100, 1, 0.3, RareOptions{}); err == nil {
		t.Error("m=0 succeeded, want error")
	}
	if _, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 1, 1, 0.3, RareOptions{}); err == nil {
		t.Error("1 rep succeeded, want error")
	}
	if _, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 100, 1, 0, RareOptions{}); err == nil {
		t.Error("zero tilt succeeded, want error")
	}
	if _, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 100, 1, 1, RareOptions{}); err == nil {
		t.Error("tilt=1 succeeded, want error")
	}
	if _, err := EstimateNaiveSystemFaultOpts(context.Background(), nil, 2, 100, 1, RareOptions{}); err == nil {
		t.Error("naive nil fault set succeeded, want error")
	}
	if _, err := EstimateNaiveSystemFaultOpts(context.Background(), fs, 0, 100, 1, RareOptions{}); err == nil {
		t.Error("naive m=0 succeeded, want error")
	}
	if _, err := EstimateNaiveSystemFaultOpts(context.Background(), fs, 2, 1, 1, RareOptions{}); err == nil {
		t.Error("naive 1 rep succeeded, want error")
	}
}

// TestRareEstimatorBitPins pins both estimators' safety-grade outputs bit
// for bit, for every kernel under the 1-out-of-2 and 2-out-of-3 rules:
// refactors of the replication loops must not move a single variate or
// change any summation order. Each key has one pin for every worker
// count: the run spans ten blocks, so 2 and 3 workers claim them out of
// order and 8 workers leave some idle.
func TestRareEstimatorBitPins(t *testing.T) {
	t.Parallel()

	sc, err := scenario.SafetyGrade(1)
	if err != nil {
		t.Fatalf("SafetyGrade: %v", err)
	}
	kernels := []struct {
		name string
		opts RareOptions
	}{
		{"dense", RareOptions{}},
		{"sparse", RareOptions{Sparse: true}},
	}
	ctx := context.Background()
	for _, estimator := range []string{"is", "naive"} {
		tilt := 0.3
		if estimator == "naive" {
			tilt = 0
		}
		for _, rule := range []string{"1oon", "2oo3"} {
			adj, err := system.ParseAdjudicator(rule)
			if err != nil {
				t.Fatalf("ParseAdjudicator(%q): %v", rule, err)
			}
			m := 2
			if rule == "2oo3" {
				m = 3
			}
			for _, k := range kernels {
				key := fmt.Sprintf("%s/%s/%s", estimator, rule, k.name)
				opts := k.opts
				opts.Adjudicator = adj
				for _, workers := range []int{1, 2, 3, 8} {
					est, err := estimateTilted(ctx, sc.FaultSet, m, 20000, 2, tilt, opts, workers)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					if got, want := estimateBits(est), rarePins[key]; got != want {
						t.Errorf("%q: %#x, // pinned %#x (workers %d, %+v)", key, got, want, workers, est)
					}
				}
			}
		}
	}
}

// estimateBits is an estimate's three values as float64 bits.
func estimateBits(est RareEventEstimate) [3]uint64 {
	return [3]uint64{math.Float64bits(est.Probability), math.Float64bits(est.StdErr), math.Float64bits(est.HitFraction)}
}

var rarePins = map[string][3]uint64{
	"is/1oon/dense":     {0x3f4f3f06429d5e6e, 0x3ef5d8dcb52f5b82, 0x3fee0ebedfa43fe6},
	"is/1oon/sparse":    {0x3f4ffabfe628ad56, 0x3ef63716523dbbac, 0x3fee1d7dbf487fcc},
	"is/2oo3/dense":     {0x3f672e68705aa0eb, 0x3f102c44e625959b, 0x3fee0ebedfa43fe6},
	"is/2oo3/sparse":    {0x3f67b9549d3e14c0, 0x3f1071cc25516b49, 0x3fee1d7dbf487fcc},
	"naive/1oon/dense":  {0x3f4bda5119ce076e, 0x3f2b027b9b38e635, 0x3f4bda5119ce075f},
	"naive/1oon/sparse": {0x3f4bda5119ce076e, 0x3f2b027b9b38e635, 0x3f4bda5119ce075f},
	"naive/2oo3/dense":  {0x3f6758e219652bda, 0x3f38b43a93e37cf0, 0x3f6758e219652bd4},
	"naive/2oo3/sparse": {0x3f6758e219652bda, 0x3f38b43a93e37cf0, 0x3f6758e219652bd4},
}

// TestRareCertainFault: a fault present with probability 1 defeats every
// system without consuming a variate, exactly as Bernoulli(1) does, and
// contributes the likelihood ratio 1, so every replication hits, the
// naive estimate is exactly 1 and the importance-sampling estimate is
// finite and near 1 under every kernel.
func TestRareCertainFault(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.003, Q: 0.001}, {P: 1, Q: 0.002}, {P: 0.002, Q: 0.001}, {P: 0.0005, Q: 0.003},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	ctx := context.Background()
	is, err := EstimateRareSystemFaultOpts(ctx, fs, 2, 5000, 4, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("importance sampling: %v", err)
	}
	if got, want := estimateBits(is), [3]uint64{0x3ff0322738de6af2, 0x3f94198d768251e9, 0x3ff0000000000000}; got != want {
		t.Errorf("importance sampling bits %#x, pinned %#x (%+v)", got, want, is)
	}
	for _, opts := range []RareOptions{{}, {Sparse: true}} {
		naive, err := EstimateNaiveSystemFaultOpts(ctx, fs, 2, 5000, 4, opts)
		if err != nil {
			t.Fatalf("naive %+v: %v", opts, err)
		}
		if naive != (RareEventEstimate{Probability: 1, HitFraction: 1}) {
			t.Errorf("naive %+v: %+v, want certain hits", opts, naive)
		}
		tilted, err := EstimateRareSystemFaultOpts(ctx, fs, 2, 5000, 4, 0.3, opts)
		if err != nil {
			t.Fatalf("importance sampling %+v: %v", opts, err)
		}
		if tilted.HitFraction != 1 || !(math.Abs(tilted.Probability-1) <= 5*tilted.StdErr) {
			t.Errorf("importance sampling %+v: %+v, want every replication hit and an estimate near 1", opts, tilted)
		}
	}
}

func BenchmarkEstimateRareIS(b *testing.B) {
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.003, Q: 0.001}, {P: 0.002, Q: 0.002}, {P: 0.001, Q: 0.001},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 10000, uint64(i), 0.3, RareOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateRareNaive(b *testing.B) {
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.003, Q: 0.001}, {P: 0.002, Q: 0.002}, {P: 0.001, Q: 0.001},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateNaiveSystemFaultOpts(context.Background(), fs, 2, 10000, uint64(i), RareOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// rareLawFaults returns the closed-form gate's universe with the p = 0.05
// group's presence probability scaled by pScale. That group {0, 1, 3, 5,
// 7, 8} is split by a p = 0.12 fault, a p = 0 hole and a p = 0.15 fault.
// Each fault reaches the system with its defeat probability under the
// rule, which the gate's tilt of 0.01 raises for the group alone, under
// 1-out-of-2 and 2-out-of-3; the group's tilted probability differs from
// its neighbours' and every tilted probability is at most 0.25. So the
// sparse kernel inverts geometric gaps over a fragmented group of six
// faults and sorts its rows, under importance sampling and naive
// simulation alike.
func rareLawFaults(t *testing.T, pScale float64) *faultmodel.FaultSet {
	t.Helper()
	g := 0.05 * pScale
	p := []float64{g, g, 0.12, g, 0, g, 0.15, g, g}
	faults := make([]faultmodel.Fault, len(p))
	for i := range faults {
		faults[i] = faultmodel.Fault{P: p[i], Q: 1e-3}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

// TestRareEstimatorsMatchClosedForm checks both estimators, in both
// forms, under 1-out-of-2 and 2-out-of-3, against the closed form
// system.PAnySystemFault: |estimate − P| ≤ z·StdErr with z = 3.29, a
// two-sided α = 1e-3 per cell under the normal approximation. Correct
// estimators fail the 8-cell gate at a random seed with probability at
// most 0.8% (the Bonferroni bound); the seed is fixed, so the outcome is
// deterministic. Each naive cell expects at least 5,000 events (P is
// 0.051 under 1-out-of-2 and 0.137 under 2-out-of-3). The power case
// holds each estimate against the closed form with the group's p scaled
// by 1.2, which every cell must reject, and every sparse cell must have
// drawn geometric gaps.
func TestRareEstimatorsMatchClosedForm(t *testing.T) {
	t.Parallel()

	const reps, z, tilt = 100000, 3.29, 0.01
	fs, perturbed := rareLawFaults(t, 1), rareLawFaults(t, 1.2)
	for _, rule := range []string{"1oo2", "2oo3"} {
		adj, err := system.ParseAdjudicator(rule)
		if err != nil {
			t.Fatalf("ParseAdjudicator(%q): %v", rule, err)
		}
		m := 2
		if rule == "2oo3" {
			m = 3
		}
		truth, err := system.PAnySystemFault(fs, adj, m)
		if err != nil {
			t.Fatalf("PAnySystemFault: %v", err)
		}
		wrong, err := system.PAnySystemFault(perturbed, adj, m)
		if err != nil {
			t.Fatalf("PAnySystemFault: %v", err)
		}
		for _, estimator := range []struct {
			name string
			tilt float64
		}{{"is", tilt}, {"naive", 0}} {
			for _, sparse := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/sparse=%v", estimator.name, rule, sparse)
				reg := telemetry.NewRegistry()
				opts := RareOptions{Sparse: sparse, Adjudicator: adj, Metrics: reg}
				est, err := estimateTilted(context.Background(), fs, m, reps, 9, estimator.tilt, opts, 2)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if d := math.Abs(est.Probability - truth); d > z*est.StdErr {
					t.Errorf("%s: estimate %v ± %v is %.2f standard errors from the closed form %v", label, est.Probability, est.StdErr, d/est.StdErr, truth)
				}
				if d := math.Abs(est.Probability - wrong); d <= z*est.StdErr {
					t.Errorf("%s: estimate %v ± %v is within %.2f standard errors of the perturbed closed form %v; the gate has no power", label, est.Probability, est.StdErr, d/est.StdErr, wrong)
				}
				if skips := reg.Counter("montecarlo.sparse_skips_total").Value(); sparse && skips == 0 {
					t.Errorf("%s: no geometric gaps drawn", label)
				}
			}
		}
	}
}

// BenchmarkRareRegimes times one single-worker estimation of 4,096
// replications per operation in each rare-event regime: safety-grade
// under sparse importance sampling, LargeUniverse(10^3) dense, and
// LargeUniverse(10^5) sparse, naive and at two tilts. At tilt 0.3 over
// 10^5 faults about 30% of faults are present per replication, a regime
// where the dense form is the right choice; it is timed to show that
// cost. Run with -benchtime=1x for the slow cells.
func BenchmarkRareRegimes(b *testing.B) {
	safety, err := scenario.SafetyGrade(1)
	if err != nil {
		b.Fatal(err)
	}
	large := func(n int) *faultmodel.FaultSet {
		sc, err := scenario.LargeUniverse(n)
		if err != nil {
			b.Fatal(err)
		}
		return sc.FaultSet
	}
	large3, large5 := large(1_000), large(100_000)
	cases := []struct {
		name   string
		fs     *faultmodel.FaultSet
		sparse bool
		tilt   float64
	}{
		{"safety-grade/sparse/tilt=0.3", safety.FaultSet, true, 0.3},
		{"large=1e3/dense/naive", large3, false, 0},
		{"large=1e3/dense/tilt=0.3", large3, false, 0.3},
		{"large=1e5/sparse/naive", large5, true, 0},
		{"large=1e5/sparse/tilt=1e-3", large5, true, 1e-3},
		{"large=1e5/sparse/tilt=0.3", large5, true, 0.3},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := estimateTilted(context.Background(), c.fs, 2, 4096, uint64(i), c.tilt, RareOptions{Sparse: c.sparse}, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
