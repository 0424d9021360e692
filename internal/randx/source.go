// Package randx provides deterministic, position-keyed pseudo-random number
// streams and samplers for the probability distributions used throughout the
// library.
//
// The Monte-Carlo experiments in this repository must be reproducible (same
// seed, same results) and parallelisable (an independent stream per block of
// work, addressed by the block's index — Stream.SeedAt — so the sample does
// not depend on which goroutine draws it).
// The package therefore implements its own generators — SplitMix64 for
// seeding and stream derivation, xoshiro256** for bulk generation — rather
// than relying on the process-global math/rand state.
package randx

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next value.
//
// SplitMix64 (Steele, Lea, Flood; "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014) is used for seeding xoshiro256** state and for
// deriving independent sub-streams, as recommended by the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** 1.0 pseudo-random generator
// (Blackman & Vigna, 2018). It has a period of 2^256-1, passes BigCrush, and
// is far faster than crypto-grade generators, which matters for the
// 10^6-10^8 variate Monte-Carlo runs in the experiment harness.
//
// Source is not safe for concurrent use; give each goroutine its own.
type Source struct {
	s [4]uint64
}

// NewSource returns a Source seeded from seed via SplitMix64, following the
// initialisation procedure recommended by the xoshiro authors. Distinct
// seeds give statistically independent streams.
func NewSource(seed uint64) *Source {
	src := &Source{}
	src.reseed(seed)
	return src
}

// reseed overwrites the generator state with the state NewSource(seed)
// starts from.
func (s *Source) reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// An all-zero state is a fixed point of xoshiro; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway for clarity.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9

	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)

	return result
}

// Fill overwrites dst with the next len(dst) values of the stream,
// exactly as repeated Uint64 calls would produce them. The generator
// state is copied into locals for the duration of the loop, so the
// compiler keeps it in registers instead of reloading four words from
// memory per draw — the difference between ~3 ns and ~1 ns per variate,
// which is what makes bulk-filling worthwhile for the dense row
// kernel of the Monte-Carlo harness.
func (s *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9

		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
}

// Hits draws n (at most 64) Bernoulli outcomes with 53-bit threshold t
// (t = ceil(p * 2^53), so each lane hits with probability exactly
// t * 2^-53 — the distribution of Float64() < p) and packs them into
// the returned mask's low n bits, lane j at bit j.
//
// The lanes are decided bit-serially, all at once. Lane j's uniform
// 53-bit variate U_j is built most significant bit first from bit j of
// successive generator words, and U_j < t is settled by the first bit
// where U_j and t differ: a 0 against t's 1 is a hit, a 1 against t's 0
// a miss. Each word therefore decides every still-live lane whose bit
// differs from t's, half of them on average, so all 64 lanes are
// decided after E[max of 64 Geometric(1/2)] ≈ 7.34 words whatever p is.
// A lane still live below t's lowest set bit equals t in every bit so
// far, so U_j >= t and it misses without further draws. This is why
// Hits(1<<52, n), a fair coin per lane, draws exactly one word. The
// ★★ scrambler makes every output bit position equally usable.
//
// Hits draws no word at all for t = 0 (no lane hits) or t >= 2^53
// (every lane hits). It does NOT consume the stream like n Uint64
// calls — callers that need draw-for-draw equivalence with the
// element-wise samplers must use FillUint64 and compare themselves.
func (s *Source) Hits(t uint64, n int) uint64 {
	live := ^uint64(0) >> uint(64-n)
	if t >= 1<<53 {
		return live
	}
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	var m uint64
	for bit, stop := 52, bits.TrailingZeros64(t); live != 0 && bit >= stop; bit-- {
		u := bits.RotateLeft64(s1*5, 7) * 9
		tv := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tv
		s3 = bits.RotateLeft64(s3, 45)

		b := -(t >> uint(bit) & 1) // all ones where t's bit is 1
		m |= live & b &^ u
		live &^= u ^ b
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
	return m
}
