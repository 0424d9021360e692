package stats

import (
	"math"
	"testing"
)

func TestBetaDistribution(t *testing.T) {
	t.Parallel()

	b, err := NewBeta(2, 5)
	if err != nil {
		t.Fatalf("NewBeta: %v", err)
	}
	if !almostEqual(b.Mean(), 2.0/7.0, 1e-14) {
		t.Errorf("Beta(2,5) mean = %v, want 2/7", b.Mean())
	}
	wantVar := 2.0 * 5.0 / (49.0 * 8.0)
	if !almostEqual(b.Variance(), wantVar, 1e-14) {
		t.Errorf("Beta(2,5) variance = %v, want %v", b.Variance(), wantVar)
	}

	// CDF round trip through quantile.
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		x, err := b.Quantile(p)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", p, err)
		}
		c, err := b.CDF(x)
		if err != nil {
			t.Fatalf("CDF(%v): %v", x, err)
		}
		if !almostEqual(c, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, c)
		}
	}
}

func TestBetaPDFIntegratesToCDF(t *testing.T) {
	t.Parallel()

	b := Beta{Alpha: 2.5, Beta: 1.5}
	// Trapezoid integral of the PDF from 0 to 0.6 should match CDF(0.6).
	const upper, steps = 0.6, 20000
	sum := 0.0
	h := upper / steps
	for i := 0; i < steps; i++ {
		x0 := float64(i) * h
		x1 := x0 + h
		sum += (b.PDF(x0) + b.PDF(x1)) / 2 * h
	}
	c, err := b.CDF(upper)
	if err != nil {
		t.Fatalf("CDF: %v", err)
	}
	if !almostEqual(sum, c, 1e-5) {
		t.Errorf("integral of PDF = %v, CDF = %v", sum, c)
	}
}

func TestBetaUniformSpecialCase(t *testing.T) {
	t.Parallel()

	u := Beta{Alpha: 1, Beta: 1}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		c, err := u.CDF(x)
		if err != nil {
			t.Fatalf("CDF: %v", err)
		}
		if !almostEqual(c, x, 1e-12) {
			t.Errorf("Beta(1,1).CDF(%v) = %v, want %v", x, c, x)
		}
		if !almostEqual(u.PDF(x), 1, 1e-12) {
			t.Errorf("Beta(1,1).PDF(%v) = %v, want 1", x, u.PDF(x))
		}
	}
}

func TestNewBetaValidation(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct{ a, b float64 }{{0, 1}, {1, 0}, {-1, 1}, {math.NaN(), 1}, {math.Inf(1), 1}} {
		if _, err := NewBeta(tc.a, tc.b); err == nil {
			t.Errorf("NewBeta(%v, %v) succeeded, want error", tc.a, tc.b)
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	t.Parallel()

	b, err := NewBinomial(20, 0.37)
	if err != nil {
		t.Fatalf("NewBinomial: %v", err)
	}
	sum := 0.0
	for k := 0; k <= 20; k++ {
		pmf, err := b.PMF(k)
		if err != nil {
			t.Fatalf("PMF(%d): %v", k, err)
		}
		if pmf < 0 {
			t.Fatalf("PMF(%d) = %v negative", k, pmf)
		}
		sum += pmf
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("sum of PMF = %v, want 1", sum)
	}
}

func TestBinomialCDFMatchesPMFSum(t *testing.T) {
	t.Parallel()

	b := Binomial{N: 15, P: 0.22}
	cum := 0.0
	for k := 0; k <= 15; k++ {
		pmf, err := b.PMF(k)
		if err != nil {
			t.Fatalf("PMF: %v", err)
		}
		cum += pmf
		cdf, err := b.CDF(k)
		if err != nil {
			t.Fatalf("CDF: %v", err)
		}
		if !almostEqual(cdf, cum, 1e-10) {
			t.Errorf("CDF(%d) = %.12g, PMF sum = %.12g", k, cdf, cum)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	t.Parallel()

	zero := Binomial{N: 10, P: 0}
	if pmf, _ := zero.PMF(0); pmf != 1 {
		t.Errorf("Binomial(10,0).PMF(0) = %v, want 1", pmf)
	}
	one := Binomial{N: 10, P: 1}
	if pmf, _ := one.PMF(10); pmf != 1 {
		t.Errorf("Binomial(10,1).PMF(10) = %v, want 1", pmf)
	}
	if cdf, _ := one.CDF(9); cdf != 0 {
		t.Errorf("Binomial(10,1).CDF(9) = %v, want 0", cdf)
	}
	if _, err := NewBinomial(-1, 0.5); err == nil {
		t.Error("NewBinomial(-1, 0.5) succeeded, want error")
	}
	if _, err := NewBinomial(5, 1.5); err == nil {
		t.Error("NewBinomial(5, 1.5) succeeded, want error")
	}
}

func TestPoissonPMFAndCDF(t *testing.T) {
	t.Parallel()

	p, err := NewPoisson(3.5)
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	cum := 0.0
	for k := 0; k <= 40; k++ {
		cum += p.PMF(k)
		cdf, err := p.CDF(k)
		if err != nil {
			t.Fatalf("CDF(%d): %v", k, err)
		}
		if !almostEqual(cdf, cum, 1e-10) {
			t.Errorf("Poisson CDF(%d) = %.12g, PMF sum = %.12g", k, cdf, cum)
		}
	}
	if !almostEqual(cum, 1, 1e-10) {
		t.Errorf("Poisson PMF total = %v, want ~1", cum)
	}
}

func TestPoissonDegenerate(t *testing.T) {
	t.Parallel()

	z, err := NewPoisson(0)
	if err != nil {
		t.Fatalf("NewPoisson(0): %v", err)
	}
	if z.PMF(0) != 1 || z.PMF(1) != 0 {
		t.Errorf("Poisson(0) PMF wrong: %v, %v", z.PMF(0), z.PMF(1))
	}
	if _, err := NewPoisson(-1); err == nil {
		t.Error("NewPoisson(-1) succeeded, want error")
	}
}
