package devsim

import "fmt"

// Bitset is a fault-presence mask packed 64 faults per uint64 word — the
// only mask representation the development processes and evaluation
// kernels share. Beyond the packed words it tracks which words have ever
// been set since the last Reset, so that clearing a million-fault mask
// between replications and walking its set bits both cost O(k) in the
// number of present faults, not O(n) in the universe size. That bound is
// what keeps sub-microsecond replications possible at n = 10^6.
//
// A Bitset is not safe for concurrent use; the Monte-Carlo harness keeps
// one set of columns per worker.
type Bitset struct {
	n     int
	words []uint64
	// touched holds the indices of words that may be nonzero, in first-set
	// order with no duplicates (Set appends only on a word's 0 -> nonzero
	// transition, and no method clears individual bits).
	touched []int32
}

// NewBitset returns an empty mask over a universe of n faults. It panics
// if n is negative.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic(fmt.Sprintf("devsim: NewBitset called with negative size %d", n))
	}
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the universe size in bits.
func (b *Bitset) Len() int { return b.n }

// NumWords returns the number of packed words, ceil(Len()/64).
func (b *Bitset) NumWords() int { return len(b.words) }

// Word returns packed word w; bit j of the result is fault 64*w + j.
// It panics if w is out of range, mirroring slice indexing.
func (b *Bitset) Word(w int) uint64 { return b.words[w] }

// Set sets bit i. It panics if i is out of range, mirroring slice
// indexing.
func (b *Bitset) Set(i int) {
	w := i >> 6
	if b.words[w] == 0 {
		b.touched = append(b.touched, int32(w))
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set. It panics if i is out of range,
// mirroring slice indexing.
func (b *Bitset) Test(i int) bool {
	return b.words[i>>6]>>(uint(i)&63)&1 == 1
}

// Touched returns the indices of words that may be nonzero, in first-set
// order without duplicates. The slice aliases internal state and is valid
// until the next Set or Reset; callers must not modify it.
func (b *Bitset) Touched() []int32 { return b.touched }

// Reset clears the mask in O(touched words) time.
func (b *Bitset) Reset() {
	for _, w := range b.touched {
		b.words[w] = 0
	}
	b.touched = b.touched[:0]
}
