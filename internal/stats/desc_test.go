package stats

import (
	"errors"
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	t.Parallel()

	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Mean(nil) error = %v, want ErrEmptySample", err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	t.Parallel()

	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	// Sum of squared deviations = 32, n-1 = 7.
	if !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatalf("StdDev: %v", err)
	}
	if !almostEqual(sd, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", sd)
	}
	if _, err := Variance([]float64{1}); err == nil {
		t.Error("Variance of singleton succeeded, want error")
	}
}

func TestQuantile(t *testing.T) {
	t.Parallel()

	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p, want float64
	}{
		{p: 0, want: 15},
		{p: 1, want: 50},
		{p: 0.5, want: 35},
		{p: 0.25, want: 20},
		{p: 0.75, want: 40},
		{p: 0.4, want: 29}, // 15,20,35,40,50 -> h=1.6 -> 20 + 0.6*15
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.p)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5) succeeded, want error")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Quantile(nil) error = %v, want ErrEmptySample", err)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	t.Parallel()

	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()

	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Errorf("Summary basics wrong: %+v", s)
	}
	if !almostEqual(s.Mean, 5.5, 1e-12) {
		t.Errorf("Summary mean = %v, want 5.5", s.Mean)
	}
	if !almostEqual(s.Median, 5.5, 1e-12) {
		t.Errorf("Summary median = %v, want 5.5", s.Median)
	}
	// A symmetric sample has ~0 skewness.
	if math.Abs(s.Skewness) > 1e-12 {
		t.Errorf("Summary skewness = %v, want 0", s.Skewness)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Summarize(nil) error = %v, want ErrEmptySample", err)
	}
}

func TestVarianceStability(t *testing.T) {
	t.Parallel()

	// Welford must keep precision for tiny values with a huge offset —
	// the regime of safety-grade PFDs.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1e-9 + float64(i%2)*1e-12
	}
	v, err := Variance(xs)
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	want := 2.5025025025e-25 // variance of alternating 0,1e-12 around mean
	if !almostEqual(v, want, 1e-3) {
		t.Errorf("variance = %g, want ~%g", v, want)
	}
}
