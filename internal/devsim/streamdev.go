package devsim

import "diversity/internal/randx"

// SparseDeveloper is an optional Process extension for O(k) simulation
// over large fault universes: DevelopSparse samples one development's
// fault mask into a caller-owned Bitset (clearing it first) and returns
// the number of geometric skip draws used.
//
// Implementations draw a different — but distributionally identical —
// variate sequence from DevelopRows. Sparse results are therefore
// exactly reproducible for a fixed seed, yet not bitwise comparable with
// dense runs; the Monte-Carlo harness keeps dense as its default and
// enables this path only on request (Config.Sparse). Processes without
// the extension have no cheaper sampler than their O(n) rows, so a
// sparse run of one develops rows exactly like a dense run.
type SparseDeveloper interface {
	// DevelopSparse overwrites mask — which must have Len() equal to
	// FaultSet().N() — with one development's fault-presence mask and
	// returns the number of geometric skip draws consumed.
	DevelopSparse(r *randx.Stream, mask *Bitset) int
}

// The independent process samples by geometric gap-skipping within
// equal-p groups.
var _ SparseDeveloper = (*IndependentProcess)(nil)
