package montecarlo

import (
	"math"
	"testing"

	"diversity/internal/randx"
)

// TestHistBinIndexMatchesLog10: the table lookup must give the
// logarithmic formula's bin for every value within 2^14 ulps of each bin
// edge — both scale ends included — and for a million log-uniform values
// on the scale.
func TestHistBinIndexMatchesLog10(t *testing.T) {
	t.Parallel()

	check := func(v float64) {
		if got, want := histBinTable().binIndex(v), histLog10Bin(v); got != want {
			t.Fatalf("binIndex(%v) = %d, log10 formula %d", v, got, want)
		}
	}
	const ulps = 1 << 14
	for k := 0; k <= HistBins; k++ {
		edge := math.Pow(10, histLog10Min+float64(k)/histBinsPerDecade)
		v := edge
		for i := 0; i < ulps; i++ {
			v = math.Nextafter(v, 0)
		}
		for i := -ulps; i <= ulps; i++ {
			check(v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	r := randx.NewStream(19)
	for i := 0; i < 1_000_000; i++ {
		check(math.Pow(10, histLog10Min*r.Float64()))
	}
}

// TestPFDHistogramObserveEdges pins where the extreme inputs land: the
// scale ends in the first and last bins, a subnormal under the scale,
// +Inf over it, and a NaN in bin 0.
func TestPFDHistogramObserveEdges(t *testing.T) {
	t.Parallel()

	var h PFDHistogram
	for _, v := range []float64{math.NaN(), histMinValue, histMaxValue, 5e-324, math.Inf(1)} {
		h.Observe(v)
	}
	if h.Counts[0] != 2 || h.Counts[HistBins-1] != 1 || h.Under != 1 || h.Over != 1 || h.N != 5 {
		t.Errorf("bin 0 = %d, last bin = %d, under = %d, over = %d, n = %d; want 2, 1, 1, 1, 5",
			h.Counts[0], h.Counts[HistBins-1], h.Under, h.Over, h.N)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("binned %d observations, want 3", total)
	}
}

// histTableSink keeps BenchmarkNewHistTable's builds observable.
var histTableSink *histTable

// BenchmarkNewHistTable times the one-off build of the bin table.
func BenchmarkNewHistTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		histTableSink = newHistTable()
	}
}
