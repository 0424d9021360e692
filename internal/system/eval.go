package system

import (
	"math/bits"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
)

// This file holds the allocation-free system-PFD kernel the Monte-Carlo
// harness scores every replication with. It reduces the adjudicator to
// its defeat threshold once, outside the per-fault loop, and sums in
// ascending fault order: the touched-word intersection walk (1-out-of-N)
// or the full word-range union walk (every other rule), both bit for bit
// the order System.PFD uses.

// BitsetSystemPFD computes the system PFD and defeating-fault count of an
// N-version pool from the versions' packed masks. For intersection rules
// (defeat threshold = pool size, i.e. 1-out-of-N) a fault defeats the
// system only when every version carries it, so the intersection is found
// by AND-ing the other masks onto the touched words of the first — O(k)
// in the faults present, never O(n). Other rules can be defeated by
// faults absent from the first version, so they scan the full word range
// and compare each union bit's stacked popcount against the threshold;
// those runs are covered for correctness, not the sparse kernel's
// performance target. An imperfect adjudication stage is folded into the
// returned PFD (the count stays the voting rule's).
func BitsetSystemPFD(fs *faultmodel.FaultSet, adj Adjudicator, masks []*devsim.Bitset) (pfd float64, count int) {
	m := len(masks)
	th := DefeatThreshold(adj, m)
	switch {
	case th > m:
		// No carrier count defeats the rule: only the stage can fail.
	case th == m:
		// Intersection of all masks, walked over the first mask's touched
		// words only.
		if m == 1 {
			pfd, count = devsim.BitsetPFD(fs, masks[0])
			break
		}
		first := masks[0]
		for _, tw := range first.Touched() {
			w := int(tw)
			x := first.Word(w)
			for _, other := range masks[1:] {
				x &= other.Word(w)
				if x == 0 {
					break
				}
			}
			count += bits.OnesCount64(x)
			for x != 0 {
				pfd += fs.Fault(w<<6 + bits.TrailingZeros64(x)).Q
				x &= x - 1
			}
		}
	case th == 0:
		// Degenerate rule defeated even by absent faults: every region
		// counts.
		for i := 0; i < fs.N(); i++ {
			pfd += fs.Fault(i).Q
		}
		count = fs.N()
	default:
		for w := 0; w < masks[0].NumWords(); w++ {
			var union uint64
			for _, mask := range masks {
				union |= mask.Word(w)
			}
			for union != 0 {
				b := bits.TrailingZeros64(union)
				union &^= 1 << uint(b)
				present := 0
				for _, mask := range masks {
					if mask.Word(w)>>uint(b)&1 == 1 {
						present++
					}
				}
				if present >= th {
					pfd += fs.Fault(w<<6 + b).Q
					count++
				}
			}
		}
	}
	return ApplyStagePFD(adj, pfd), count
}
