package randx

import (
	"math"
	"math/bits"
	"testing"

	"diversity/internal/stats"
)

// refHits is the scalar reference for Source.Hits: it draws words one at
// a time and, for each undecided lane j, compares bit j of the word with
// t's next bit, most significant of its 53 first. A lower bit is a hit,
// a higher bit a miss. It stops once every lane is decided or t has no
// set bit left, where every undecided lane equals t so far and misses.
func refHits(s *Source, t uint64, n int) uint64 {
	var m uint64
	if t >= 1<<53 {
		for j := 0; j < n; j++ {
			m |= 1 << uint(j)
		}
		return m
	}
	decided := make([]bool, n)
	undecided := n
	for bit := 52; bit >= 0 && undecided > 0 && t&(1<<uint(bit+1)-1) != 0; bit-- {
		u := s.Uint64()
		tb := t >> uint(bit) & 1
		for j := range decided {
			if ub := u >> uint(j) & 1; !decided[j] && ub != tb {
				decided[j] = true
				undecided--
				if ub < tb {
					m |= 1 << uint(j)
				}
			}
		}
	}
	return m
}

// hitsThresholds are the thresholds the Hits tests cover: the smallest,
// both sides of a fair coin, the largest below certainty, and thresholds
// from real presence probabilities with no trailing zeros to stop at.
var hitsThresholds = []uint64{
	1, 2, 3, 1<<52 - 1, 1 << 52, 1<<53 - 1,
	uint64(math.Ceil(0.3 * 0x1p53)),
	uint64(math.Ceil(1e-9 * 0x1p53)),
	(1 << 53) / 3,
}

// TestHitsMatchesScalarReference: the register-resident kernel must
// agree with the scalar reference bit for bit and leave the source in
// the same state, across thresholds, widths, and seeds.
func TestHitsMatchesScalarReference(t *testing.T) {
	t.Parallel()

	for _, thr := range hitsThresholds {
		for _, n := range []int{1, 2, 31, 63, 64} {
			for seed := uint64(1); seed <= 20; seed++ {
				a, b := NewSource(seed), NewSource(seed)
				got := a.Hits(thr, n)
				want := refHits(b, thr, n)
				if got != want {
					t.Fatalf("Hits(%d, %d) seed %d = %#x, reference %#x", thr, n, seed, got, want)
				}
				if *a != *b {
					t.Fatalf("Hits(%d, %d) seed %d left the source in a different state from the reference", thr, n, seed)
				}
			}
		}
	}
}

// wordsDrawn counts the generator words a call to f draws from s, by
// stepping a copy of s's state until it reaches the state f left.
func wordsDrawn(s *Source, f func()) int {
	before := *s
	f()
	w := 0
	for ; before != *s; w++ {
		if w > 53 {
			panic("Hits drew more than 53 words")
		}
		before.Uint64()
	}
	return w
}

// TestHitsDegenerateThresholds: t = 0 (p = 0) never hits and t = 2^53
// (p = 1) always hits, both without drawing a word; t = 2^52, a fair
// coin per lane, is settled by exactly one word.
func TestHitsDegenerateThresholds(t *testing.T) {
	t.Parallel()

	for seed := uint64(1); seed <= 10; seed++ {
		for _, n := range []int{1, 31, 64} {
			lanes := ^uint64(0) >> uint(64-n)
			s := NewSource(seed)
			var got uint64
			if w := wordsDrawn(s, func() { got = s.Hits(0, n) }); got != 0 || w != 0 {
				t.Fatalf("Hits(0, %d) seed %d = %#x after %d words, want 0 after none", n, seed, got, w)
			}
			if w := wordsDrawn(s, func() { got = s.Hits(1<<53, n) }); got != lanes || w != 0 {
				t.Fatalf("Hits(2^53, %d) seed %d = %#x after %d words, want %#x after none", n, seed, got, w, lanes)
			}
			if w := wordsDrawn(s, func() { got = s.Hits(1<<52, n) }); w != 1 {
				t.Fatalf("Hits(2^52, %d) seed %d drew %d words, want 1", n, seed, w)
			}
			if got&^lanes != 0 {
				t.Fatalf("Hits(2^52, %d) seed %d = %#x sets bits past the width", n, seed, got)
			}
		}
	}
}

// TestHitsFrequency tests every lane's hit count over 20,000
// 64-lane calls against Binomial(20000, t·2^-53) with a two-sided exact
// test at α = 1e-4 per lane: 192 tests over three thresholds, so a
// correct kernel fails at a random seed with probability at most 1.9%
// (Bonferroni). The seed is fixed, so the outcome is deterministic.
func TestHitsFrequency(t *testing.T) {
	t.Parallel()

	const calls, alpha = 20000, 1e-4
	src := NewSource(7)
	for _, thr := range []uint64{uint64(math.Ceil(0.01 * 0x1p53)), uint64(math.Ceil(0.3 * 0x1p53)), (1 << 53) / 3} {
		var counts [64]int
		for i := 0; i < calls; i++ {
			for m := src.Hits(thr, 64); m != 0; m &= m - 1 {
				counts[bits.TrailingZeros64(m)]++
			}
		}
		dist, err := stats.NewBinomial(calls, float64(thr)*0x1p-53)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range counts {
			lower, err := dist.CDF(k)
			if err != nil {
				t.Fatal(err)
			}
			upper, err := dist.CDF(k - 1)
			if err != nil {
				t.Fatal(err)
			}
			if p := min(1, 2*min(lower, 1-upper)); p < alpha {
				t.Errorf("threshold %d lane %d: %d hits in %d calls, binomial p = %.3g < %g", thr, j, k, calls, p, alpha)
			}
		}
	}
}

// TestHitsLanePairsIndependent runs a 2×2 chi-square independence test
// (one degree of freedom after fitting both margins) on every one of the
// 2,016 lane pairs over 20,000 64-lane calls at p = 0.3, at α = 1e-5 per
// pair: a correct kernel fails at a random seed with probability at most
// 2% (Bonferroni). Lanes share every generator word, so this is where a
// bit-position dependence in the generator would show.
func TestHitsLanePairsIndependent(t *testing.T) {
	t.Parallel()

	const calls, alpha = 20000, 1e-5
	thr := uint64(math.Ceil(0.3 * 0x1p53))
	src := NewSource(11)
	masks := make([]uint64, calls)
	for i := range masks {
		masks[i] = src.Hits(thr, 64)
	}
	var ones [64]int
	for _, m := range masks {
		for ; m != 0; m &= m - 1 {
			ones[bits.TrailingZeros64(m)]++
		}
	}
	for a := 0; a < 64; a++ {
		for b := a + 1; b < 64; b++ {
			both := 0
			for _, m := range masks {
				both += int(m >> uint(a) & (m >> uint(b)) & 1)
			}
			obs := []int{both, ones[a] - both, ones[b] - both, calls - ones[a] - ones[b] + both}
			pa, pb := float64(ones[a])/calls, float64(ones[b])/calls
			exp := []float64{pa * pb * calls, pa * (1 - pb) * calls, (1 - pa) * pb * calls, (1 - pa) * (1 - pb) * calls}
			res, err := stats.ChiSquareTest(obs, exp, 2)
			if err != nil {
				t.Fatal(err)
			}
			if res.DF != 1 || res.PValue < alpha {
				t.Errorf("lanes %d and %d: 2×2 counts %v, chi-square df %d p = %.3g < %g", a, b, obs, res.DF, res.PValue, alpha)
			}
		}
	}
}

// TestHitsWordsPerCall: a 64-lane call draws one word per bit of t until
// every lane is decided, so the word count W has P(W > k) = 1-(1-2^-k)^64
// for k below the 53 - tz(t) bits it may consume, mean ≈ 7.34. The mean
// over 20,000 calls must lie within 4.42 standard errors of the exact
// mean (two-sided normal α = 1e-5, by the CLT).
func TestHitsWordsPerCall(t *testing.T) {
	t.Parallel()

	const calls = 20000
	thr := uint64(math.Ceil(0.3 * 0x1p53))
	var mean, second float64
	for k := 0; k < 53-bits.TrailingZeros64(thr); k++ {
		tail := 1 - math.Pow(1-math.Ldexp(1, -k), 64)
		mean += tail
		second += float64(2*k+1) * tail
	}
	if math.Abs(mean-7.34) > 0.01 {
		t.Fatalf("exact mean words per call %v, want ≈ 7.34", mean)
	}
	src := NewSource(3)
	total := 0
	for i := 0; i < calls; i++ {
		total += wordsDrawn(src, func() { src.Hits(thr, 64) })
	}
	se := math.Sqrt((second - mean*mean) / calls)
	if got := float64(total) / calls; math.Abs(got-mean) > 4.42*se {
		t.Errorf("mean words per 64-lane call %.4f, exact %.4f: off by more than 4.42 SE = %.4f", got, mean, 4.42*se)
	}
}
