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
//
// Every product that feeds a sum is rounded by an explicit float64
// conversion, which the Go spec guarantees the compiler will not fuse
// into a multiply-add, so the accumulator gives the same bits on every
// architecture.
type Moments struct {
	n                int64
	mean, m2, m3, m4 float64
}

// central is the part of Moments that an observation moves. With four
// fields, a local copy lives in registers. Moments does not embed it:
// fixed-seed digests render aggregates with %v, and nesting would change
// that text.
type central struct {
	mean, m2, m3, m4 float64
}

// terms returns the factors of add that depend only on the count, for
// the observation that brings k observations to n = k+1.
func terms(k int64) (n1, n, nm2, poly float64) {
	n = float64(k + 1)
	return float64(k), n, n - 2, float64(n*n) - float64(3*n) + 3
}

// add returns c after adding x as observation n, with n1 = n-1,
// nm2 = n-2 and poly = n²-3n+3 from terms: Pébay's one-pass update, and
// its only copy. It stays within the compiler's inlining budget (cost
// 79 of 80 with Go 1.24), which is why it subtracts the mean twice
// rather than name the difference: PairMoments' loop then keeps both
// accumulators in registers and overlaps their division chains.
func (c central) add(x, n1, n, nm2, poly float64) central {
	deltaN := (x - c.mean) / n
	term1 := float64((x - c.mean) * deltaN * n1)
	c.mean += deltaN
	c.m4 += float64(term1*(deltaN*deltaN)*poly) + float64(6*(deltaN*deltaN)*c.m2) - float64(4*deltaN*c.m3)
	c.m3 += float64(term1*deltaN*nm2) - float64(3*deltaN*c.m2)
	c.m2 += term1
	return c
}

// Add incorporates x into the running moments.
func (m *Moments) Add(x float64) {
	n1, n, nm2, poly := terms(m.n)
	c := central{m.mean, m.m2, m.m3, m.m4}.add(x, n1, n, nm2, poly)
	m.n, m.mean, m.m2, m.m3, m.m4 = m.n+1, c.mean, c.m2, c.m3, c.m4
}

// PairMoments returns the moments of xs and of ys, each with the bits of
// an Add loop over it alone. One loop adds both, so the two
// accumulators' division chains overlap. xs and ys must have one length.
func PairMoments(xs, ys []float64) (mx, my Moments) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: PairMoments of %d and %d values", len(xs), len(ys)))
	}
	var a, b central
	for i, x := range xs {
		n1, n, nm2, poly := terms(int64(i))
		a = a.add(x, n1, n, nm2, poly)
		b = b.add(ys[i], n1, n, nm2, poly)
	}
	k := int64(len(xs))
	return Moments{k, a.mean, a.m2, a.m3, a.m4}, Moments{k, b.mean, b.m2, b.m3, b.m4}
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
	m4 := m.m4 + b.m4 + delta2*delta2*nA*nB*(float64(nA*nA)-float64(nA*nB)+float64(nB*nB))/(n*n*n) +
		6*delta2*(float64(nA*nA*b.m2)+float64(nB*nB*m.m2))/(n*n) +
		4*delta*(float64(nA*b.m3)-float64(nB*m.m3))/n
	m3 := m.m3 + b.m3 + delta2*delta*nA*nB*(nA-nB)/(n*n) +
		3*delta*(float64(nA*b.m2)-float64(nB*m.m2))/n
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
