package randx

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewSourceDeterministic(t *testing.T) {
	t.Parallel()

	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewSourceSeedsDiffer(t *testing.T) {
	t.Parallel()

	a := NewSource(1)
	b := NewSource(2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sources with different seeds produced %d/%d identical values", same, n)
	}
}

func TestSourceZeroSeedUsable(t *testing.T) {
	t.Parallel()

	src := NewSource(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if src.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Errorf("seed-0 source produced %d zero outputs in 100 draws; state likely degenerate", zeros)
	}
}

func TestSourceBitBalance(t *testing.T) {
	t.Parallel()

	// Every output bit should be set roughly half the time. A grossly
	// unbalanced bit indicates a broken generator implementation.
	src := NewSource(7)
	const n = 20000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := src.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("bit %d set fraction %.4f, want within [0.45, 0.55]", b, frac)
		}
	}
}

func TestSeedAtIndependence(t *testing.T) {
	t.Parallel()

	// Sibling indices of one seed, and the same index under neighbouring
	// seeds, must not replay each other's streams.
	const n = 500
	seen := make(map[uint64]string)
	r := NewStream(0)
	for _, seed := range []uint64{99, 100} {
		for index := uint64(0); index < 4; index++ {
			r.SeedAt(seed, index)
			label := fmt.Sprintf("(%d, %d)", seed, index)
			for i := 0; i < n; i++ {
				v := r.Uint64()
				if prev, ok := seen[v]; ok {
					t.Fatalf("streams %s and %s produced identical value %d", prev, label, v)
				}
				seen[v] = label
			}
		}
	}
}

func TestSeedAtDeterministic(t *testing.T) {
	t.Parallel()

	// SeedAt depends only on (seed, index): not on the draws, the spare
	// normal or the indices the stream served before.
	a, b := NewStream(1), NewStream(2)
	a.Normal()
	a.SeedAt(5, 2)
	b.SeedAt(5, 7)
	b.SeedAt(5, 2)
	for j := 0; j < 100; j++ {
		if got, want := a.Normal(), b.Normal(); got != want {
			t.Fatalf("draw %d: %v != %v", j, got, want)
		}
	}
}

func TestStreamFloat64Range(t *testing.T) {
	t.Parallel()

	r := NewStream(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 returned %v, want [0,1)", u)
		}
	}
}

func TestStreamFloat64OpenRange(t *testing.T) {
	t.Parallel()

	r := NewStream(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64Open()
		if u <= 0 || u >= 1 {
			t.Fatalf("Float64Open returned %v, want (0,1)", u)
		}
	}
}

func TestStreamFloat64Moments(t *testing.T) {
	t.Parallel()

	r := NewStream(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sumSq += u * u
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %.5f, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.005 {
		t.Errorf("uniform variance = %.5f, want ~%.5f", variance, 1.0/12.0)
	}
}

func TestStreamIntNUniform(t *testing.T) {
	t.Parallel()

	r := NewStream(17)
	const n, k = 120000, 12
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		v := r.IntN(k)
		if v < 0 || v >= k {
			t.Fatalf("IntN(%d) returned %d", k, v)
		}
		counts[v]++
	}
	want := float64(n) / k
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("IntN bucket %d count %d, want ~%.0f", v, c, want)
		}
	}
}

func TestStreamIntNPanicsOnNonPositive(t *testing.T) {
	t.Parallel()

	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	NewStream(1).IntN(0)
}

func TestStreamBernoulli(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name string
		p    float64
	}{
		{name: "tenth", p: 0.1},
		{name: "half", p: 0.5},
		{name: "ninety", p: 0.9},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			r := NewStream(23)
			const n = 100000
			hits := 0
			for i := 0; i < n; i++ {
				if r.Bernoulli(tt.p) {
					hits++
				}
			}
			got := float64(hits) / n
			tol := 4 * math.Sqrt(tt.p*(1-tt.p)/n)
			if math.Abs(got-tt.p) > tol {
				t.Errorf("Bernoulli(%v) frequency %.5f, want within %.5f", tt.p, got, tol)
			}
		})
	}
}

func TestStreamBernoulliEdges(t *testing.T) {
	t.Parallel()

	r := NewStream(1)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestStreamNormalMoments(t *testing.T) {
	t.Parallel()

	r := NewStream(31)
	const n = 300000
	sum, sumSq, sumCube := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
		sumCube += x * x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %.5f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %.5f, want ~1", variance)
	}
	if math.Abs(skew) > 0.03 {
		t.Errorf("normal third moment = %.5f, want ~0", skew)
	}
}

func TestStreamNormalMuSigma(t *testing.T) {
	t.Parallel()

	r := NewStream(37)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormalMuSigma(5, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-5) > 0.03 {
		t.Errorf("mean = %.4f, want ~5", mean)
	}
	if math.Abs(sd-2) > 0.03 {
		t.Errorf("sd = %.4f, want ~2", sd)
	}
}

func TestStreamExponential(t *testing.T) {
	t.Parallel()

	r := NewStream(41)
	const n = 200000
	const rate = 2.5
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exponential(rate)
		if x < 0 {
			t.Fatalf("Exponential returned negative value %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("exponential mean = %.5f, want ~%.5f", mean, 1/rate)
	}
}

func TestStreamGammaMoments(t *testing.T) {
	t.Parallel()

	shapes := []float64{0.5, 1, 2.5, 9}
	for _, shape := range shapes {
		shape := shape
		r := NewStream(uint64(shape * 100))
		const n = 150000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := r.Gamma(shape)
			if x < 0 {
				t.Fatalf("Gamma(%v) returned negative value %v", shape, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("Gamma(%v) mean = %.4f, want ~%.4f", shape, mean, shape)
		}
		if math.Abs(variance-shape) > 0.1*shape+0.05 {
			t.Errorf("Gamma(%v) variance = %.4f, want ~%.4f", shape, variance, shape)
		}
	}
}

func TestStreamBetaMoments(t *testing.T) {
	t.Parallel()

	tests := []struct {
		alpha, beta float64
	}{
		{alpha: 1, beta: 1},
		{alpha: 2, beta: 5},
		{alpha: 0.5, beta: 0.5},
	}
	for _, tt := range tests {
		tt := tt
		r := NewStream(uint64(tt.alpha*1000 + tt.beta))
		const n = 150000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := r.Beta(tt.alpha, tt.beta)
			if x < 0 || x > 1 {
				t.Fatalf("Beta(%v,%v) returned %v outside [0,1]", tt.alpha, tt.beta, x)
			}
			sum += x
		}
		wantMean := tt.alpha / (tt.alpha + tt.beta)
		mean := sum / n
		if math.Abs(mean-wantMean) > 0.01 {
			t.Errorf("Beta(%v,%v) mean = %.4f, want ~%.4f", tt.alpha, tt.beta, mean, wantMean)
		}
	}
}

func TestStreamBinomialMoments(t *testing.T) {
	t.Parallel()

	tests := []struct {
		n int
		p float64
	}{
		{n: 10, p: 0.3},
		{n: 100, p: 0.05},
		{n: 200, p: 0.7},
	}
	for _, tt := range tests {
		tt := tt
		r := NewStream(uint64(tt.n))
		const reps = 60000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < reps; i++ {
			k := r.Binomial(tt.n, tt.p)
			if k < 0 || k > tt.n {
				t.Fatalf("Binomial(%d,%v) returned %d", tt.n, tt.p, k)
			}
			x := float64(k)
			sum += x
			sumSq += x * x
		}
		wantMean := float64(tt.n) * tt.p
		wantVar := wantMean * (1 - tt.p)
		mean := sum / reps
		variance := sumSq/reps - mean*mean
		if math.Abs(mean-wantMean) > 5*math.Sqrt(wantVar/reps)+0.01 {
			t.Errorf("Binomial(%d,%v) mean = %.4f, want ~%.4f", tt.n, tt.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.05 {
			t.Errorf("Binomial(%d,%v) variance = %.4f, want ~%.4f", tt.n, tt.p, variance, wantVar)
		}
	}
}

func TestStreamBinomialEdges(t *testing.T) {
	t.Parallel()

	r := NewStream(1)
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d, want 0", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d, want 10", got)
	}
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, 0.5) = %d, want 0", got)
	}
}

func TestStreamPoissonMoments(t *testing.T) {
	t.Parallel()

	lambdas := []float64{0.5, 4, 25, 100}
	for _, lambda := range lambdas {
		lambda := lambda
		r := NewStream(uint64(lambda * 7))
		const n = 60000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(lambda))
			sum += k
			sumSq += k * k
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 5*math.Sqrt(lambda/n)+0.01 {
			t.Errorf("Poisson(%v) mean = %.4f, want ~%.4f", lambda, mean, lambda)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.05 {
			t.Errorf("Poisson(%v) variance = %.4f, want ~%.4f", lambda, variance, lambda)
		}
	}
}

func TestStreamPoissonZero(t *testing.T) {
	t.Parallel()

	r := NewStream(1)
	for i := 0; i < 100; i++ {
		if got := r.Poisson(0); got != 0 {
			t.Fatalf("Poisson(0) = %d, want 0", got)
		}
	}
}

func TestStreamDirichlet(t *testing.T) {
	t.Parallel()

	r := NewStream(53)
	alpha := []float64{1, 2, 3, 4}
	out := make([]float64, len(alpha))
	const n = 50000
	sums := make([]float64, len(alpha))
	for i := 0; i < n; i++ {
		r.Dirichlet(alpha, out)
		total := 0.0
		for j, v := range out {
			if v < 0 || v > 1 {
				t.Fatalf("Dirichlet component %v outside [0,1]", v)
			}
			total += v
			sums[j] += v
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("Dirichlet sample sums to %v, want 1", total)
		}
	}
	alphaTotal := 10.0
	for j := range alpha {
		want := alpha[j] / alphaTotal
		got := sums[j] / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Dirichlet component %d mean = %.4f, want ~%.4f", j, got, want)
		}
	}
}

func TestStreamDirichletLengthMismatchPanics(t *testing.T) {
	t.Parallel()

	defer func() {
		if recover() == nil {
			t.Fatal("Dirichlet with mismatched lengths did not panic")
		}
	}()
	NewStream(1).Dirichlet([]float64{1, 2}, make([]float64, 3))
}

func TestStreamPerm(t *testing.T) {
	t.Parallel()

	r := NewStream(61)
	out := make([]int, 20)
	for trial := 0; trial < 100; trial++ {
		r.Perm(out)
		seen := make(map[int]bool, len(out))
		for _, v := range out {
			if v < 0 || v >= len(out) || seen[v] {
				t.Fatalf("Perm produced invalid permutation %v", out)
			}
			seen[v] = true
		}
	}
}

func TestStreamShufflePreservesMultiset(t *testing.T) {
	t.Parallel()

	err := quick.Check(func(xs []float64) bool {
		r := NewStream(7)
		orig := make([]float64, len(xs))
		copy(orig, xs)
		r.Shuffle(xs)
		counts := make(map[float64]int)
		for _, v := range orig {
			counts[v]++
		}
		for _, v := range xs {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSeedAtStreamsUncorrelated(t *testing.T) {
	t.Parallel()

	// Correlation between sibling streams should be negligible.
	a, b := NewStream(0), NewStream(0)
	a.SeedAt(71, 0)
	const n = 20000
	for i := uint64(1); i < 8; i++ {
		b.SeedAt(71, i)
		sumAB, sumA, sumB := 0.0, 0.0, 0.0
		for j := 0; j < n; j++ {
			x := a.Float64()
			y := b.Float64()
			sumAB += x * y
			sumA += x
			sumB += y
		}
		cov := sumAB/n - (sumA/n)*(sumB/n)
		if math.Abs(cov) > 0.01 {
			t.Errorf("streams 0 and %d covariance %.5f, want ~0", i, cov)
		}
	}
}
