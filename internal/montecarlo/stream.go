package montecarlo

import (
	"fmt"
	"math"
	"sync"

	"diversity/internal/stats"
)

// Histogram geometry: HistBins log10-spaced bins spanning PFD values from
// 10^histLog10Min to 10^histLog10Max, i.e. histBinsPerDecade bins per
// decade. Quantiles read from the histogram therefore carry a relative
// resolution of 10^(1/histBinsPerDecade) ≈ 7.5% — ample for the
// order-of-magnitude PFD comparisons the reports make, at a fixed 3 KiB
// per histogram regardless of replication count.
const (
	// HistBins is the number of finite log-scale bins of a PFDHistogram.
	HistBins = 384
	// histLog10Min/Max bound the representable positive PFD range
	// [1e-12, 1]; values outside it land in the Under/Over counters.
	histLog10Min = -12
	histLog10Max = 0
	// histBinsPerDecade is the bin density: HistBins spread over the
	// (histLog10Max - histLog10Min) decades of the scale.
	histBinsPerDecade = HistBins / (histLog10Max - histLog10Min)
	// histMinValue/histMaxValue are the value-space scale bounds,
	// 10^histLog10Min and 10^histLog10Max.
	histMinValue = 1e-12
	histMaxValue = 1.0
)

// PFDHistogram is a fixed-size log10-scale histogram of positive PFD
// values, the quantile substrate of streaming runs. Bins are value-width
// multiplicative: bin k covers [10^(min + k/d), 10^(min + (k+1)/d)) with
// d = histBinsPerDecade. Zero PFDs are not observed here — streaming
// aggregation counts them exactly in Agg.Zeros — and values off the scale
// are counted in Under/Over, so N is always the number of positive
// observations.
//
// The zero value is an empty histogram ready to use. A PFDHistogram is
// NOT safe for concurrent use; the Monte-Carlo harness gives each worker
// its own and merges them after the run.
type PFDHistogram struct {
	// Counts holds the per-bin observation counts.
	Counts [HistBins]int64
	// Under counts positive observations below the scale (PFD < 1e-12);
	// Over counts observations above it (PFD > 1, which a valid model
	// cannot produce but floating-point summation may graze).
	Under, Over int64
	// N is the total number of observations, including Under and Over.
	N int64
}

// histBinIndex maps a positive value on the scale to its bin: the bin
// histLog10Bin gives, found without a logarithm. The value's exponent
// and leading mantissa bits key a cell of histBinTable, and one compare
// against the cell's exact edge settles the bin. Values off the scale
// land in the cells at its ends, so the result is always a valid bin.
func histBinIndex(v float64) int {
	t := histBinTable()
	c := &t.cells[min(max(histCellKey(v)-t.keyMin, 0), len(t.cells)-1)]
	bin := c.bin
	if v >= c.edge {
		bin++
	}
	return bin
}

// histLog10Bin is the bin formula histBinIndex reproduces,
// floor((log10(v) - histLog10Min) · histBinsPerDecade) clamped to the
// scale, for a positive finite v.
func histLog10Bin(v float64) int {
	idx := math.Floor((math.Log10(v) - histLog10Min) * histBinsPerDecade)
	return int(min(max(idx, 0), HistBins-1))
}

// histCellBits is the number of leading mantissa bits that, with the
// exponent, key a value's cell. A cell spans a value ratio of at most
// 1 + 2^-histCellBits = 1.0625, below the bin ratio 10^(1/32) ≈ 1.075,
// so no cell holds more than one bin edge.
const histCellBits = 4

// histCellKey returns the cell key of v: its sign, exponent and leading
// histCellBits mantissa bits, which order positive values.
func histCellKey(v float64) int {
	return int(math.Float64bits(v) >> (52 - histCellBits))
}

// histCell is one cell of the bin table.
type histCell struct {
	edge float64 // the least value of bin+1 in the cell, or +Inf
	bin  int     // the bin of the cell's least value
}

// histTable maps the cells spanning the scale, from the cell of
// histMinValue (key keyMin) to the cell of histMaxValue, to their bins.
type histTable struct {
	keyMin int
	cells  []histCell
}

// histBinTable returns the bin table, built on first use rather than at
// package init so programs that never stream do not pay for it.
var histBinTable = sync.OnceValue(newHistTable)

// newHistTable finds every bin edge — the least float64 whose
// histLog10Bin is k — by walking ulp by ulp from math.Pow's estimate,
// which lands within a few ulps, then files each edge under its cell.
func newHistTable() *histTable {
	var edges [HistBins + 1]float64
	edges[HistBins] = math.Inf(1)
	for k := 1; k < HistBins; k++ {
		v := math.Pow(10, histLog10Min+float64(k)/histBinsPerDecade)
		for histLog10Bin(v) < k {
			v = math.Nextafter(v, math.Inf(1))
		}
		for below := math.Nextafter(v, 0); histLog10Bin(below) >= k; below = math.Nextafter(v, 0) {
			v = below
		}
		edges[k] = v
	}
	t := &histTable{keyMin: histCellKey(histMinValue)}
	t.cells = make([]histCell, histCellKey(histMaxValue)-t.keyMin+1)
	for i := range t.cells {
		key := uint64(t.keyMin+i) << (52 - histCellBits)
		lo, next := math.Float64frombits(key), math.Float64frombits(key+1<<(52-histCellBits))
		bin := histLog10Bin(lo)
		edge := edges[bin+1]
		if edge >= next {
			edge = math.Inf(1)
		} else if bin+2 <= HistBins && edges[bin+2] < next {
			panic("montecarlo: histogram cell spans two bin edges")
		}
		t.cells[i] = histCell{edge: edge, bin: bin}
	}
	return t
}

// histBinLo returns the lower value edge of bin idx.
func histBinLo(idx int) float64 {
	return math.Pow(10, histLog10Min+float64(idx)/histBinsPerDecade)
}

// Observe records one positive observation. A NaN, which no valid
// model produces, is counted in bin 0.
func (h *PFDHistogram) Observe(v float64) {
	h.N++
	switch {
	case math.IsNaN(v):
		h.Counts[0]++
	case v < histMinValue:
		h.Under++
	case v > histMaxValue:
		h.Over++
	default:
		h.Counts[histBinIndex(v)]++
	}
}

// Merge adds another histogram's counts into h.
func (h *PFDHistogram) Merge(o *PFDHistogram) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Under += o.Under
	h.Over += o.Over
	h.N += o.N
}

// Agg is the streaming aggregate of one PFD population: mergeable
// first-four moments, exact min/max and zero-count, and a log-scale
// histogram for quantiles. It is the constant-memory replacement for a
// []float64 sample — observing a value is a handful of float operations
// and never allocates.
//
// The zero value is an empty aggregate ready to use. An Agg is NOT safe
// for concurrent use; the harness keeps one per worker, hands each
// block's moments to a block-ordered fold, and merges the rest after all
// workers drain.
type Agg struct {
	// Moments accumulates mean, variance, skewness and kurtosis.
	Moments stats.Moments
	// Min and Max are the exact extremes of the observations (0 until the
	// first Observe).
	Min, Max float64
	// Zeros counts observations that were exactly 0 — the fault-free
	// outcomes, kept out of the log-scale histogram.
	Zeros int64
	// Hist is the log-scale histogram of the positive observations.
	Hist PFDHistogram
}

// Observe folds one PFD value into the aggregate.
func (a *Agg) Observe(v float64) {
	if a.N() == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Moments.Add(v)
	if v == 0 {
		a.Zeros++
	} else {
		a.Hist.Observe(v)
	}
}

// N returns the number of observations folded in, counted without the
// moments, which the harness moves out of worker aggregates per block.
func (a *Agg) N() int64 { return a.Zeros + a.Hist.N }

// Merge combines another aggregate into a, as if every observation of b
// had been Observed by a (moments up to floating-point rounding; counts,
// min and max exactly).
func (a *Agg) Merge(b *Agg) {
	if b.N() == 0 {
		return
	}
	if a.N() == 0 {
		*a = *b
		return
	}
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Moments.Merge(b.Moments)
	a.Zeros += b.Zeros
	a.Hist.Merge(&b.Hist)
}

// Quantile returns the approximate p-th quantile of the aggregated
// population: exact for p = 0 and p = 1 (the tracked min/max) and for
// ranks inside the exact zero-count, histogram-resolution (≈7.5%
// relative) elsewhere, using log-linear interpolation inside the bin the
// target rank falls in. It returns an error for an empty aggregate or p
// outside [0, 1].
func (a *Agg) Quantile(p float64) (float64, error) {
	n := a.Moments.N()
	if n == 0 {
		return 0, stats.ErrEmptySample
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("montecarlo: quantile requires p in [0, 1], got %v", p)
	}
	// The extremes are tracked exactly; the histogram is only consulted
	// for interior ranks.
	if p == 0 {
		return a.Min, nil
	}
	if p == 1 {
		return a.Max, nil
	}
	// Target the same continuous rank as the sample quantile
	// (Hyndman–Fan type 7): h = p(n-1) over ranks 0..n-1.
	target := p * float64(n-1)
	clamp := func(v float64) float64 {
		if v < a.Min {
			return a.Min
		}
		if v > a.Max {
			return a.Max
		}
		return v
	}
	// Walk the population in value order: exact zeros, sub-scale values,
	// the log-scale bins, then above-scale values.
	cum := float64(a.Zeros)
	if target < cum {
		return 0, nil
	}
	cum += float64(a.Hist.Under)
	if target < cum {
		return clamp(histBinLo(0)), nil
	}
	for i := range a.Hist.Counts {
		c := float64(a.Hist.Counts[i])
		if c == 0 {
			continue
		}
		if target < cum+c {
			lo, hi := histBinLo(i), histBinLo(i+1)
			frac := (target - cum) / c
			return clamp(lo * math.Pow(hi/lo, frac)), nil
		}
		cum += c
	}
	return a.Max, nil
}

// Summary returns the aggregate's descriptive statistics in the same
// shape the buffered path reports: exact N, mean, standard deviation,
// skewness, kurtosis, min and max; median and upper percentiles at
// histogram resolution. It returns an error for an empty aggregate.
func (a *Agg) Summary() (stats.Summary, error) {
	n := a.Moments.N()
	if n == 0 {
		return stats.Summary{}, stats.ErrEmptySample
	}
	s := stats.Summary{
		N:        int(n),
		Mean:     a.Moments.Mean(),
		Min:      a.Min,
		Max:      a.Max,
		Skewness: a.Moments.Skewness(),
		Kurtosis: a.Moments.Kurtosis(),
	}
	if n >= 2 {
		sd, err := a.Moments.StdDev()
		if err != nil {
			return stats.Summary{}, err
		}
		s.StdDev = sd
	}
	for _, q := range []struct {
		p   float64
		dst *float64
	}{{0.5, &s.Median}, {0.05, &s.Q05}, {0.95, &s.Q95}, {0.99, &s.Q99}} {
		v, err := a.Quantile(q.p)
		if err != nil {
			return stats.Summary{}, err
		}
		*q.dst = v
	}
	return s, nil
}
