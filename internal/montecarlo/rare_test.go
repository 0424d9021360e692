package montecarlo

import (
	"context"
	"fmt"
	"math"
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/scenario"
	"diversity/internal/system"
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
	"is/1oon/dense":     {0x3f4f3f06429d5e6c, 0x3ef5d8dcb52f5b81, 0x3fee0ebedfa43fe6},
	"is/1oon/sparse":    {0x3f5020bdc5da122f, 0x3ef63347fc9439a6, 0x3fee305532617c1c},
	"is/2oo3/dense":     {0x3f672e68705aa0e6, 0x3f102c44e6259599, 0x3fee0ebedfa43fe6},
	"is/2oo3/sparse":    {0x3f67edfa28a22f53, 0x3f106f08a0ce2bcb, 0x3fee305532617c1c},
	"naive/1oon/dense":  {0x3f4bda5119ce076e, 0x3f2b027b9b38e635, 0x3f4bda5119ce075f},
	"naive/1oon/sparse": {0x3f547ae147ae1487, 0x3f305fae86880f9d, 0x3f547ae147ae147b},
	"naive/2oo3/dense":  {0x3f6758e219652bda, 0x3f38b43a93e37cf0, 0x3f6758e219652bd4},
	"naive/2oo3/sparse": {0x3f6f212d77318fd1, 0x3f3c831c6722c5e0, 0x3f6f212d77318fc5},
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

// TestTiltGroupsCap: the sparse tilt groups split an equal-p set past the
// size cap, which only a 32-bit platform reaches, into groups of the
// same tilt and weight increment that together hold every fault once.
func TestTiltGroupsCap(t *testing.T) {
	t.Parallel()

	faults := make([]faultmodel.Fault, 0, 14)
	for i := 0; i < 14; i++ {
		faults = append(faults, faultmodel.Fault{P: []float64{0.01, 0.02}[i%3/2], Q: 1e-3})
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	opts := RareOptions{Sparse: true}
	whole := newTiltKernel(fs, 2, 0.05, opts, maxTiltGroup)
	split := newTiltKernel(fs, 2, 0.05, opts, 3)
	if len(whole.groups) != 2 || len(split.groups) != 6 || split.baseLogW != whole.baseLogW {
		t.Fatalf("groups %d and %d, baseLogW %v and %v; want 2 and 6, equal",
			len(whole.groups), len(split.groups), whole.baseLogW, split.baseLogW)
	}
	sizes := map[tiltGroup]int{}
	for _, g := range whole.groups {
		sizes[tiltGroup{sampler: g.sampler, logDelta: g.logDelta}] += g.size
	}
	for _, g := range split.groups {
		if g.size > 3 {
			t.Errorf("split group of %d faults, want at most 3", g.size)
		}
		sizes[tiltGroup{sampler: g.sampler, logDelta: g.logDelta}] -= g.size
	}
	for g, n := range sizes {
		if n != 0 {
			t.Errorf("group p = %v: split groups hold %d faults fewer than the whole one", g.sampler.P(), n)
		}
	}
}
