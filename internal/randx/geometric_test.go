package randx

import (
	"math"
	"testing"
)

// geometricSample draws n Geometric(p) variates and returns their mean and
// variance.
func geometricSample(t *testing.T, p float64, n int, seed uint64) (mean, variance float64) {
	t.Helper()
	r := NewStream(seed)
	g := NewGeometricSampler(p)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		k := g.Next(r)
		if k < 0 {
			t.Fatalf("Geometric(%v) returned negative value %d", p, k)
		}
		x := float64(k)
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestGeometricMoments(t *testing.T) {
	// Covers both regimes: inversion (p <= 0.25) and Bernoulli-trial
	// fallback (p > 0.25).
	const n = 200_000
	for _, p := range []float64{1e-4, 0.01, 0.1, 0.25, 0.3, 0.5, 0.9} {
		wantMean := (1 - p) / p
		wantVar := (1 - p) / (p * p)
		mean, variance := geometricSample(t, p, n, 42)
		// 5 sigma Monte-Carlo tolerance on the sample mean.
		tol := 5 * math.Sqrt(wantVar/float64(n))
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("Geometric(%v): mean %v, want %v +- %v", p, mean, wantMean, tol)
		}
		if math.Abs(variance-wantVar) > 0.05*wantVar+tol {
			t.Errorf("Geometric(%v): variance %v, want about %v", p, variance, wantVar)
		}
	}
}

func TestGeometricCDF(t *testing.T) {
	// Empirical P(K <= k) must match 1-(1-p)^(k+1) in both regimes.
	const n = 100_000
	for _, p := range []float64{0.05, 0.6} {
		r := NewStream(7)
		g := NewGeometricSampler(p)
		counts := make([]int, 64)
		for i := 0; i < n; i++ {
			k := g.Next(r)
			if k < len(counts) {
				counts[k]++
			}
		}
		cum := 0
		for k := 0; k < 10; k++ {
			cum += counts[k]
			got := float64(cum) / n
			want := 1 - math.Pow(1-p, float64(k+1))
			se := math.Sqrt(want * (1 - want) / n)
			if math.Abs(got-want) > 5*se+1e-9 {
				t.Errorf("Geometric(%v): P(K<=%d) = %v, want %v +- %v", p, k, got, want, 5*se)
			}
		}
	}
}

func TestGeometricDegenerate(t *testing.T) {
	r := NewStream(1)
	for i := 0; i < 100; i++ {
		if k := r.Geometric(1); k != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", k)
		}
	}
}

// TestGeometricTinyP: a p so small that gaps pass the int range must
// still give non-negative gaps that a skip loop can add to a position
// below its bound without overflow — on 386, where int is 32 bits, too.
func TestGeometricTinyP(t *testing.T) {
	r := NewStream(2)
	for _, p := range []float64{1e-9, 1e-12, 1e-300} {
		g := NewGeometricSampler(p)
		for i := 0; i < 1000; i++ {
			if k := g.Next(r); k < 0 || k > MaxGap || 1<<20+1+k < 0 {
				t.Fatalf("Geometric(%v) = %d: negative or past the cap %d", p, k, MaxGap)
			}
		}
	}
}

func TestGeometricPanicsOnInvalidP(t *testing.T) {
	for _, p := range []float64{0, -0.1, 1.0000001, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGeometricSampler(%v) did not panic", p)
				}
			}()
			NewGeometricSampler(p)
		}()
	}
}

func TestGeometricMatchesSampler(t *testing.T) {
	// Stream.Geometric must draw the same sequence as a prebuilt sampler.
	for _, p := range []float64{0.01, 0.7} {
		a, b := NewStream(9), NewStream(9)
		g := NewGeometricSampler(p)
		for i := 0; i < 1000; i++ {
			if x, y := a.Geometric(p), g.Next(b); x != y {
				t.Fatalf("p=%v draw %d: Geometric=%d sampler=%d", p, i, x, y)
			}
		}
	}
}

func TestFillUint64MatchesSequential(t *testing.T) {
	a, b := NewStream(3), NewStream(3)
	buf := make([]uint64, 257)
	a.FillUint64(buf)
	for i, got := range buf {
		if want := b.Uint64(); got != want {
			t.Fatalf("FillUint64[%d] = %#x, want %#x", i, got, want)
		}
	}
}

func TestFillFloat64MatchesSequential(t *testing.T) {
	a, b := NewStream(4), NewStream(4)
	buf := make([]float64, 257)
	a.FillFloat64(buf)
	for i, got := range buf {
		if want := b.Float64(); got != want {
			t.Fatalf("FillFloat64[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestBernoulliValidatedMatchesUnclampedBernoulli(t *testing.T) {
	// For p strictly inside (0, 1) the validated form must consume the
	// same variate and produce the same outcome as Bernoulli.
	a, b := NewStream(5), NewStream(5)
	for i := 0; i < 10_000; i++ {
		p := 0.001 + 0.998*float64(i)/10_000
		if x, y := a.Bernoulli(p), b.BernoulliValidated(p); x != y {
			t.Fatalf("draw %d p=%v: Bernoulli=%v validated=%v", i, p, x, y)
		}
	}
	// Degenerate p: always one draw consumed, deterministic outcome.
	r := NewStream(6)
	for i := 0; i < 100; i++ {
		if r.BernoulliValidated(0) {
			t.Fatal("BernoulliValidated(0) returned true")
		}
		if !r.BernoulliValidated(1) {
			t.Fatal("BernoulliValidated(1) returned false")
		}
	}
}

func BenchmarkGeometricInversion(b *testing.B) {
	r := NewStream(1)
	g := NewGeometricSampler(1e-4)
	sink := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += g.Next(r)
	}
	_ = sink
}

func BenchmarkGeometricFallback(b *testing.B) {
	r := NewStream(1)
	g := NewGeometricSampler(0.5)
	sink := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += g.Next(r)
	}
	_ = sink
}
