package stats

import (
	"errors"
	"testing"

	"diversity/internal/randx"
)

func TestECDFBasics(t *testing.T) {
	t.Parallel()

	e, err := NewECDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	tests := []struct {
		x, want float64
	}{
		{x: 0.5, want: 0},
		{x: 1, want: 0.25},
		{x: 1.5, want: 0.25},
		{x: 2, want: 0.75},
		{x: 3, want: 1},
		{x: 99, want: 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if _, err := NewECDF(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("NewECDF(nil) error = %v, want ErrEmptySample", err)
	}
}

func TestECDFConvergesToTrueCDF(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(17)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		if got := e.At(x); !almostEqual(got, x, 0.01) {
			t.Errorf("uniform ECDF at %v = %v, want ~%v", x, got, x)
		}
	}
}
