package stats

import (
	"math"
	"testing"

	"diversity/internal/randx"
)

func TestKSTestAcceptsCorrectModel(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(5)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.NormalMuSigma(2, 3)
	}
	dist := Normal{Mu: 2, Sigma: 3}
	res, err := KSTest(xs, dist.CDF)
	if err != nil {
		t.Fatalf("KSTest: %v", err)
	}
	if res.PValue < 0.01 {
		t.Errorf("KS rejected the true model: D=%v p=%v", res.Statistic, res.PValue)
	}
	if res.Statistic <= 0 || res.Statistic >= 1 {
		t.Errorf("KS statistic %v out of range", res.Statistic)
	}
}

func TestKSTestRejectsWrongModel(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(6)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.NormalMuSigma(2, 3)
	}
	wrong := Normal{Mu: 0, Sigma: 1}
	res, err := KSTest(xs, wrong.CDF)
	if err != nil {
		t.Fatalf("KSTest: %v", err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("KS failed to reject a badly wrong model: D=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestKSTestEmptySample(t *testing.T) {
	t.Parallel()

	if _, err := KSTest(nil, StdNormal.CDF); err == nil {
		t.Error("KSTest(nil) succeeded, want error")
	}
}

func TestKSTestInvalidCDF(t *testing.T) {
	t.Parallel()

	bad := func(float64) float64 { return 2 }
	if _, err := KSTest([]float64{1, 2}, bad); err == nil {
		t.Error("KSTest with invalid CDF succeeded, want error")
	}
}

func TestKSTwoSampleSameDistribution(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(9)
	xs := make([]float64, 3000)
	ys := make([]float64, 4000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	for i := range ys {
		ys[i] = r.Float64()
	}
	res, err := KSTestTwoSample(xs, ys)
	if err != nil {
		t.Fatalf("KSTestTwoSample: %v", err)
	}
	if res.PValue < 0.01 {
		t.Errorf("two-sample KS rejected identical distributions: D=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestKSTwoSampleDifferentDistributions(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(10)
	xs := make([]float64, 3000)
	ys := make([]float64, 3000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	for i := range ys {
		ys[i] = r.Float64() + 0.3
	}
	res, err := KSTestTwoSample(xs, ys)
	if err != nil {
		t.Fatalf("KSTestTwoSample: %v", err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("two-sample KS failed to separate shifted distributions: p=%v", res.PValue)
	}
	if _, err := KSTestTwoSample(nil, ys); err == nil {
		t.Error("KSTestTwoSample(nil, ys) succeeded, want error")
	}
}

func TestKolmogorovQLimits(t *testing.T) {
	t.Parallel()

	if got := kolmogorovQ(0); got != 1 {
		t.Errorf("Q(0) = %v, want 1", got)
	}
	if got := kolmogorovQ(10); got > 1e-20 {
		t.Errorf("Q(10) = %v, want ~0", got)
	}
	// Known point: Q(0.82757) ~ 0.5 (median of the Kolmogorov dist).
	if got := kolmogorovQ(0.82757); math.Abs(got-0.5) > 0.001 {
		t.Errorf("Q(0.82757) = %v, want ~0.5", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for lam := 0.1; lam < 3; lam += 0.1 {
		q := kolmogorovQ(lam)
		if q > prev+1e-12 {
			t.Fatalf("kolmogorovQ not monotone at %v", lam)
		}
		prev = q
	}
}

func TestChiSquareAcceptsUniform(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(21)
	const n, k = 100000, 10
	observed := make([]int, k)
	for i := 0; i < n; i++ {
		observed[r.IntN(k)]++
	}
	expected := make([]float64, k)
	for i := range expected {
		expected[i] = float64(n) / k
	}
	res, err := ChiSquareTest(observed, expected, 0)
	if err != nil {
		t.Fatalf("ChiSquareTest: %v", err)
	}
	if res.DF != k-1 {
		t.Errorf("DF = %d, want %d", res.DF, k-1)
	}
	if res.PValue < 0.01 {
		t.Errorf("chi-square rejected uniform sample: stat=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestChiSquareRejectsSkew(t *testing.T) {
	t.Parallel()

	observed := []int{500, 100, 100, 100, 200}
	expected := []float64{200, 200, 200, 200, 200}
	res, err := ChiSquareTest(observed, expected, 0)
	if err != nil {
		t.Fatalf("ChiSquareTest: %v", err)
	}
	if res.PValue > 1e-10 {
		t.Errorf("chi-square failed to reject skew: p=%v", res.PValue)
	}
}

func TestChiSquarePoolsSparseBins(t *testing.T) {
	t.Parallel()

	// Expected counts of 1 must be pooled, not tested raw.
	observed := []int{10, 1, 1, 1, 1, 1, 10}
	expected := []float64{10, 1, 1, 1, 1, 1, 10}
	res, err := ChiSquareTest(observed, expected, 0)
	if err != nil {
		t.Fatalf("ChiSquareTest: %v", err)
	}
	// After pooling: [10, 5, 10] -> 2 degrees of freedom.
	if res.DF != 2 {
		t.Errorf("DF after pooling = %d, want 2", res.DF)
	}
	if res.Statistic != 0 {
		t.Errorf("statistic = %v, want 0 for exact match", res.Statistic)
	}
}

func TestChiSquareErrors(t *testing.T) {
	t.Parallel()

	if _, err := ChiSquareTest([]int{1}, []float64{1, 2}, 0); err == nil {
		t.Error("mismatched lengths succeeded, want error")
	}
	if _, err := ChiSquareTest(nil, nil, 0); err == nil {
		t.Error("empty input succeeded, want error")
	}
	if _, err := ChiSquareTest([]int{5, 5}, []float64{5, 5}, 5); err == nil {
		t.Error("excess fitted params succeeded, want error")
	}
}

func TestWilsonInterval(t *testing.T) {
	t.Parallel()

	lo, hi, err := WilsonInterval(50, 100, 0.95)
	if err != nil {
		t.Fatalf("WilsonInterval: %v", err)
	}
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("Wilson CI [%v, %v] should bracket 0.5", lo, hi)
	}
	if !almostEqual(lo, 0.4038, 0.01) || !almostEqual(hi, 0.5962, 0.01) {
		t.Errorf("Wilson CI [%v, %v], want ~[0.404, 0.596]", lo, hi)
	}

	// Zero successes: lower bound 0, upper bound positive.
	lo, hi, err = WilsonInterval(0, 1000, 0.95)
	if err != nil {
		t.Fatalf("WilsonInterval: %v", err)
	}
	if lo > 1e-9 {
		t.Errorf("Wilson lower bound %v for 0 successes, want ~0", lo)
	}
	if hi <= 0 || hi > 0.01 {
		t.Errorf("Wilson upper bound %v for 0/1000, want small positive", hi)
	}
}

func TestWilsonIntervalValidation(t *testing.T) {
	t.Parallel()

	if _, _, err := WilsonInterval(1, 0, 0.95); err == nil {
		t.Error("trials=0 succeeded, want error")
	}
	if _, _, err := WilsonInterval(5, 3, 0.95); err == nil {
		t.Error("successes > trials succeeded, want error")
	}
	if _, _, err := WilsonInterval(1, 10, 1.2); err == nil {
		t.Error("level > 1 succeeded, want error")
	}
}
