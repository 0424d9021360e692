package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a
// sample. It answers P(X <= x) under the empirical measure, which E09
// compares with the confidence level of the paper's percentile bounds.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. It returns an error for an empty sample.
// xs is copied, not retained.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmptySample
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// At returns the empirical CDF value at x: the fraction of observations
// less than or equal to x.
func (e *ECDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x;
	// advance over ties to count observations <= x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}
