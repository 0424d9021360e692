package montecarlo

import (
	"context"
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
	est, err := EstimateRareSystemFault(fs, 2, 50000, 7, 0.3)
	if err != nil {
		t.Fatalf("EstimateRareSystemFault: %v", err)
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
	is, err := EstimateRareSystemFault(fs, 2, 100000, 3, 0.3)
	if err != nil {
		t.Fatalf("EstimateRareSystemFault: %v", err)
	}
	if math.Abs(is.Probability-truth) > 5*is.StdErr+1e-9 {
		t.Errorf("IS estimate %v ± %v vs truth %v", is.Probability, is.StdErr, truth)
	}
	naive, err := EstimateNaiveSystemFault(fs, 2, 100000, 3)
	if err != nil {
		t.Fatalf("EstimateNaiveSystemFault: %v", err)
	}
	if math.Abs(naive.Probability-truth) > 5*naive.StdErr+1e-9 {
		t.Errorf("naive estimate %v ± %v vs truth %v", naive.Probability, naive.StdErr, truth)
	}
}

func TestEstimateRareVarianceReduction(t *testing.T) {
	t.Parallel()

	fs := rareFaultSet(t)
	const reps = 20000
	is, err := EstimateRareSystemFault(fs, 2, reps, 11, 0.3)
	if err != nil {
		t.Fatalf("EstimateRareSystemFault: %v", err)
	}
	naive, err := EstimateNaiveSystemFault(fs, 2, reps, 11)
	if err != nil {
		t.Fatalf("EstimateNaiveSystemFault: %v", err)
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
	est, err := EstimateRareSystemFault(fs, 2, 20000, 5, 0.3)
	if err != nil {
		t.Fatalf("EstimateRareSystemFault: %v", err)
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
	est, err := EstimateRareSystemFault(fs, 2, 1000, 1, 0.3)
	if err != nil {
		t.Fatalf("EstimateRareSystemFault: %v", err)
	}
	if est.Probability != 0 || est.HitFraction != 0 {
		t.Errorf("zero set gave estimate %+v", est)
	}
}

func TestEstimateRareValidation(t *testing.T) {
	t.Parallel()

	fs := rareFaultSet(t)
	if _, err := EstimateRareSystemFault(nil, 2, 100, 1, 0.3); err == nil {
		t.Error("nil fault set succeeded, want error")
	}
	if _, err := EstimateRareSystemFault(fs, 0, 100, 1, 0.3); err == nil {
		t.Error("m=0 succeeded, want error")
	}
	if _, err := EstimateRareSystemFault(fs, 2, 1, 1, 0.3); err == nil {
		t.Error("1 rep succeeded, want error")
	}
	if _, err := EstimateRareSystemFault(fs, 2, 100, 1, 0); err == nil {
		t.Error("zero tilt succeeded, want error")
	}
	if _, err := EstimateRareSystemFault(fs, 2, 100, 1, 1); err == nil {
		t.Error("tilt=1 succeeded, want error")
	}
	if _, err := EstimateNaiveSystemFault(nil, 2, 100, 1); err == nil {
		t.Error("naive nil fault set succeeded, want error")
	}
	if _, err := EstimateNaiveSystemFault(fs, 0, 100, 1); err == nil {
		t.Error("naive m=0 succeeded, want error")
	}
	if _, err := EstimateNaiveSystemFault(fs, 2, 1, 1); err == nil {
		t.Error("naive 1 rep succeeded, want error")
	}
}

// TestRareEstimatorBitPins pins both estimators' safety-grade outputs bit
// for bit, dense and batched, under the 1-out-of-2 and 2-out-of-3 rules:
// refactors of the replication loops must not move a single variate or
// change any summation order.
func TestRareEstimatorBitPins(t *testing.T) {
	t.Parallel()

	sc, err := scenario.SafetyGrade(1)
	if err != nil {
		t.Fatalf("SafetyGrade: %v", err)
	}
	pins := []struct {
		estimator, adj string
		width          int
		prob, se, hit  uint64
	}{
		{"is", "1oon", 0, 0x3f5045b12c4b8d31, 0x3ef648e0859c1d47, 0x3fee2f837b4a233a},
		{"naive", "1oon", 0, 0x3f5205bc01a36e2f, 0x3f2eb8e1f07dbf7d, 0x3f5205bc01a36e2f},
		{"is", "1oon", 64, 0x3f50696d8faed616, 0x3ef661205279ba4e, 0x3fee339c0ebedfa4},
		{"naive", "1oon", 64, 0x3f4bda5119ce075f, 0x3f2b027b9b38e632, 0x3f4bda5119ce075f},
		{"is", "2oo3", 0, 0x3f6824cb401773ef, 0x3f107f25c55c0980, 0x3fee2f837b4a233a},
		{"naive", "2oo3", 0, 0x3f682a9930be0ded, 0x3f3921e6a8e4720e, 0x3f682a9930be0ded},
		{"is", "2oo3", 64, 0x3f68597bfa2f37ad, 0x3f10911104c1e46a, 0x3fee339c0ebedfa4},
		{"naive", "2oo3", 64, 0x3f6a36e2eb1c432d, 0x3f3a2c23efd0eed9, 0x3f6a36e2eb1c432d},
	}
	ctx := context.Background()
	for _, pin := range pins {
		adj, err := system.ParseAdjudicator(pin.adj)
		if err != nil {
			t.Fatalf("ParseAdjudicator(%q): %v", pin.adj, err)
		}
		m := 2
		if pin.adj == "2oo3" {
			m = 3
		}
		opts := RareOptions{Adjudicator: adj, BatchWidth: pin.width}
		var est RareEventEstimate
		if pin.estimator == "is" {
			est, err = EstimateRareSystemFaultOpts(ctx, sc.FaultSet, m, 20000, 2, 0.3, opts)
		} else {
			est, err = EstimateNaiveSystemFaultOpts(ctx, sc.FaultSet, m, 20000, 2, opts)
		}
		if err != nil {
			t.Fatalf("%s %s width=%d: %v", pin.estimator, pin.adj, pin.width, err)
		}
		got := [3]uint64{math.Float64bits(est.Probability), math.Float64bits(est.StdErr), math.Float64bits(est.HitFraction)}
		if want := [3]uint64{pin.prob, pin.se, pin.hit}; got != want {
			t.Errorf("%s %s width=%d: bits %#x, pinned %#x (%+v)", pin.estimator, pin.adj, pin.width, got, want, est)
		}
	}
}

// TestRareCertainFault: a fault present with probability 1 defeats every
// system without consuming a variate, exactly as Bernoulli(1) does, so the
// dense estimators keep their pinned outputs and every replication hits.
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
	if got, want := [3]uint64{math.Float64bits(is.Probability), math.Float64bits(is.StdErr), math.Float64bits(is.HitFraction)},
		[3]uint64{0x3feef482ccc97248, 0x3f93e12118701973, 0x3ff0000000000000}; got != want {
		t.Errorf("importance sampling bits %#x, pinned %#x (%+v)", got, want, is)
	}
	for _, width := range []int{0, 64} {
		naive, err := EstimateNaiveSystemFaultOpts(ctx, fs, 2, 5000, 4, RareOptions{BatchWidth: width})
		if err != nil {
			t.Fatalf("naive width=%d: %v", width, err)
		}
		if naive != (RareEventEstimate{Probability: 1, HitFraction: 1}) {
			t.Errorf("naive width=%d: %+v, want certain hits", width, naive)
		}
	}
	batched, err := EstimateRareSystemFaultOpts(ctx, fs, 2, 5000, 4, 0.3, RareOptions{BatchWidth: 64})
	if err != nil {
		t.Fatalf("batched importance sampling: %v", err)
	}
	if batched.HitFraction != 1 || math.Abs(batched.Probability-1) > 5*batched.StdErr {
		t.Errorf("batched importance sampling %+v, want every replication hit and an estimate near 1", batched)
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
		if _, err := EstimateRareSystemFault(fs, 2, 10000, uint64(i), 0.3); err != nil {
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
		if _, err := EstimateNaiveSystemFault(fs, 2, 10000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
