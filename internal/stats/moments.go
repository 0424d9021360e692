package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Moments is a streaming accumulator of the first four central moments:
// count, mean, and the second to fourth central-moment sums (M2..M4). It
// has the two properties the Monte-Carlo harness relies on: numerically
// stable one-pass updates (Welford/Pébay) and an exact parallel merge
// (Chan et al.), so per-worker accumulators reduce deterministically
// without ever materialising the sample.
//
// The zero value is ready to use.
type Moments struct {
	n                int64
	mean, m2, m3, m4 float64
}

// Add incorporates x into the running moments.
func (m *Moments) Add(x float64) {
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := x - m.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.mean += deltaN
	m.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.m2 - 4*deltaN*m.m3
	m.m3 += term1*deltaN*(n-2) - 3*deltaN*m.m2
	m.m2 += term1
}

// Merge combines another accumulator into m, exactly as if every
// observation of b had been Added to m (up to floating-point rounding).
// The merge is deterministic, so reducing per-shard accumulators in shard
// order yields run-to-run identical results.
func (m *Moments) Merge(b Moments) {
	if b.n == 0 {
		return
	}
	if m.n == 0 {
		*m = b
		return
	}
	nA, nB := float64(m.n), float64(b.n)
	n := nA + nB
	delta := b.mean - m.mean
	delta2 := delta * delta
	m4 := m.m4 + b.m4 + delta2*delta2*nA*nB*(nA*nA-nA*nB+nB*nB)/(n*n*n) +
		6*delta2*(nA*nA*b.m2+nB*nB*m.m2)/(n*n) +
		4*delta*(nA*b.m3-nB*m.m3)/n
	m3 := m.m3 + b.m3 + delta2*delta*nA*nB*(nA-nB)/(n*n) +
		3*delta*(nA*b.m2-nB*m.m2)/n
	m2 := m.m2 + b.m2 + delta2*nA*nB/n
	m.mean += delta * nB / n
	m.m2, m.m3, m.m4 = m2, m3, m4
	m.n += b.n
}

// N returns the number of observations added.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean (0 for an empty accumulator).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased (n-1 denominator) sample variance. It
// requires at least two observations.
func (m *Moments) Variance() (float64, error) {
	if m.n < 2 {
		return 0, fmt.Errorf("stats: variance requires at least 2 observations, got %d", m.n)
	}
	return m.m2 / float64(m.n-1), nil
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() (float64, error) {
	v, err := m.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// PopulationVariance returns the biased (n denominator) variance, the
// central moment the skewness and kurtosis ratios are taken over. It is 0
// for an empty accumulator.
func (m *Moments) PopulationVariance() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Skewness returns the sample skewness g1 = m3/m2^1.5 with population
// (n-denominator) central moments — the same definition Summarize
// reports. It is 0 when fewer than two observations were added or the
// sample has zero variance.
func (m *Moments) Skewness() float64 {
	if m.n < 2 || m.m2 == 0 {
		return 0
	}
	n := float64(m.n)
	pm2 := m.m2 / n
	return (m.m3 / n) / math.Pow(pm2, 1.5)
}

// Kurtosis returns the sample excess kurtosis g2 = m4/m2² − 3 with
// population (n-denominator) central moments. It is 0 when fewer than two
// observations were added or the sample has zero variance.
func (m *Moments) Kurtosis() float64 {
	if m.n < 2 || m.m2 == 0 {
		return 0
	}
	n := float64(m.n)
	pm2 := m.m2 / n
	return (m.m4/n)/(pm2*pm2) - 3
}

// momentsJSON is the persisted wire form of Moments: the five
// accumulator fields, verbatim. Go's JSON encoding round-trips float64
// values exactly, so marshal/unmarshal reproduces the accumulator
// bit-for-bit.
type momentsJSON struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	M3   float64 `json:"m3"`
	M4   float64 `json:"m4"`
}

// MarshalJSON encodes the accumulator state, so streaming aggregates can
// be persisted (the serving layer's durable job ledger stores results
// that embed Moments).
func (m Moments) MarshalJSON() ([]byte, error) {
	return json.Marshal(momentsJSON{N: m.n, Mean: m.mean, M2: m.m2, M3: m.m3, M4: m.m4})
}

// UnmarshalJSON restores an accumulator encoded by MarshalJSON.
func (m *Moments) UnmarshalJSON(data []byte) error {
	var w momentsJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*m = Moments{n: w.N, mean: w.Mean, m2: w.M2, m3: w.M3, m4: w.M4}
	return nil
}
