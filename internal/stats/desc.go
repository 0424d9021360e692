package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmptySample is returned by descriptive statistics that are undefined
// on an empty sample.
var ErrEmptySample = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or an error for an empty sample.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It requires at least two observations.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: variance requires at least 2 observations, got %d", len(xs))
	}
	_, m2 := welford(xs)
	return m2 / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Quantile returns the p-th sample quantile of xs using linear
// interpolation between order statistics (Hyndman–Fan type 7, the R and
// NumPy default). It returns an error for an empty sample or p outside
// [0, 1]. xs is not modified.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile requires p in [0, 1], got %v", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p), nil
}

// quantileSorted computes the type-7 quantile of an already-sorted sample.
func quantileSorted(sorted []float64, p float64) float64 {
	return zeroRun{rest: sorted}.quantile(p)
}

// zeroRun is a sorted sample held as rest, its sorted values that are
// not +0, and a count of +0s. The run of +0s starts at index at0, where
// +0 sorts among them: rest[:at0] sorts before 0 (NaNs and negatives)
// and rest[at0:] after it. A fully sorted sample is rest alone.
type zeroRun struct {
	rest       []float64
	at0, zeros int
}

// at returns the i-th value of the sorted sample.
func (z zeroRun) at(i int) float64 {
	switch {
	case i < z.at0:
		return z.rest[i]
	case i < z.at0+z.zeros:
		return 0
	default:
		return z.rest[i-z.zeros]
	}
}

// quantile computes the type-7 quantile of the sample. Its products
// are rounded explicitly, as Moments' are, so that no architecture fuses
// them into the sums that follow.
func (z zeroRun) quantile(p float64) float64 {
	n := len(z.rest) + z.zeros
	if n == 1 {
		return z.at(0)
	}
	h := float64(p * float64(n-1))
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return z.at(n - 1)
	}
	frac := h - float64(lo)
	return z.at(lo) + float64(frac*(z.at(lo+1)-z.at(lo)))
}

// Summary holds the descriptive statistics the experiment reports print
// for a sample.
type Summary struct {
	N        int     // sample size
	Mean     float64 // sample mean
	StdDev   float64 // sample standard deviation (n-1 denominator); 0 if N < 2
	Min      float64 // smallest observation
	Max      float64 // largest observation
	Median   float64 // 50th percentile
	Q05      float64 // 5th percentile
	Q95      float64 // 95th percentile
	Q99      float64 // 99th percentile
	Skewness float64 // sample skewness (g1, biased)
	Kurtosis float64 // sample excess kurtosis (g2, biased)
}

// Summarize computes a Summary of xs, or an error for an empty sample.
// xs is not modified. It sorts a full copy of xs and makes a Welford and
// a Moments pass; the Monte-Carlo harness no longer calls it, and takes
// its order statistics from OrderSummary instead.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptySample
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	mean, m2 := welford(xs)
	sd := 0.0
	if len(xs) >= 2 {
		sd = math.Sqrt(m2 / float64(len(xs)-1))
	}
	s := Summary{
		N:      len(xs),
		Mean:   mean,
		StdDev: sd,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: quantileSorted(sorted, 0.5),
		Q05:    quantileSorted(sorted, 0.05),
		Q95:    quantileSorted(sorted, 0.95),
		Q99:    quantileSorted(sorted, 0.99),
	}
	// Central-moment skewness/kurtosis (population denominators): adequate
	// for the large Monte-Carlo samples they are reported on. Computed
	// with the mergeable Moments accumulator — the same type the
	// Monte-Carlo harness folds per-shard aggregates with.
	if sd > 0 {
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		s.Skewness = m.Skewness()
		s.Kurtosis = m.Kurtosis()
	}
	return s, nil
}

// OrderSummary returns a Summary holding only the order statistics of
// xs — N, Min, Max, Median, Q05, Q95 and Q99 — with the same bits as
// Summarize's, or an error for an empty sample. Its moment fields are
// zero. It sorts only the values that are not +0, so a sample that is
// mostly +0, as the PFDs of a safe version are, costs little more than
// one pass. Only -0 may land on the other side of the +0s from where a
// full sort puts it; PFDs are never -0. xs is not modified.
func OrderSummary(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptySample
	}
	k := 0
	for _, x := range xs {
		if math.Float64bits(x) != 0 {
			k++
		}
	}
	rest := make([]float64, 0, k)
	for _, x := range xs {
		if math.Float64bits(x) != 0 {
			rest = append(rest, x)
		}
	}
	sort.Float64s(rest)
	at0 := sort.Search(len(rest), func(i int) bool { return !(rest[i] < 0 || math.IsNaN(rest[i])) })
	z := zeroRun{rest: rest, at0: at0, zeros: len(xs) - k}
	return Summary{
		N:      len(xs),
		Min:    z.at(0),
		Max:    z.at(len(xs) - 1),
		Median: z.quantile(0.5),
		Q05:    z.quantile(0.05),
		Q95:    z.quantile(0.95),
		Q99:    z.quantile(0.99),
	}, nil
}

// welford returns the mean of xs and the sum of squared deviations from
// it by Welford's online algorithm, which is numerically stable for the
// tiny PFD values (1e-9 and below) that the safety-grade scenarios
// produce.
func welford(xs []float64) (mean, m2 float64) {
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += float64(delta * (x - mean))
	}
	return mean, m2
}
