package devsim

import (
	"math"

	"diversity/internal/randx"
)

// BatchScratchLen returns the scratch length DevelopRows requires for a
// tile of width <= 64 lanes over a universe of n faults: one mask word
// per fault, whatever the width.
func BatchScratchLen(width, n int) int {
	return n
}

// BernoulliThreshold maps a presence probability to the integer
// threshold T such that, for a 64-bit draw u,
//
//	u>>11 < T  ⟺  float64(u>>11) * 0x1p-53 < p  ⟺  Stream.Float64() < p.
//
// The equivalence is exact: p*2^53 is an exact float64 product for
// p ∈ [0, 1] (a pure exponent shift cannot round), u>>11 < 2^53 is
// exactly representable, and an integer u is below a real bound x iff
// it is below ceil(x). p = 0 yields T = 0 (never true) and p = 1 yields
// T = 2^53 (always true), matching BernoulliValidated.
func BernoulliThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * 0x1p53))
}

// blendHits develops one fault's row whose lanes in sel hit at
// threshold tSel and whose other lanes hit at tRest. It draws a mask only
// if some lane selects it, so a tile whose lanes all fall on one side
// draws one mask.
func blendHits(r *randx.Stream, tSel, tRest, sel uint64, width int) uint64 {
	var m uint64
	if sel != 0 {
		m = r.Hits(tSel, width) & sel
	}
	if sel != ^uint64(0)>>uint(64-width) {
		m |= r.Hits(tRest, width) &^ sel
	}
	return m
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of word k
// moves to bit k of word j (LSB-first in both dimensions). Standard
// recursive block-swap, 6 rounds of masked exchanges.
func transpose64(a *[64]uint64) {
	j := uint(32)
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := ((a[k] >> j) ^ a[k+int(j)]) & m
			a[k] ^= t << j
			a[k+int(j)] ^= t
		}
		j >>= 1
		m ^= m << j
	}
}

// scatterRows transposes fault-major mask rows into at most 64 per-lane
// columns, overwriting every word of every column and rebuilding the
// touched lists — which both clears stale state and restores the Bitset
// O(touched) contract for the evaluation kernels.
func scatterRows(rows []uint64, cols []*Bitset, n int) {
	var blk [64]uint64
	for wb := 0; wb*64 < n; wb++ { // fault word block
		lo, hi := wb*64, min(wb*64+64, n)
		copy(blk[:], rows[lo:hi])
		clear(blk[hi-lo:])
		transpose64(&blk)
		for j, col := range cols {
			col.words[wb] = blk[j]
		}
	}
	for _, col := range cols {
		col.touched = col.touched[:0]
		for wi, word := range col.words {
			if word != 0 {
				col.touched = append(col.touched, int32(wi))
			}
		}
	}
}

// batchThresholds builds the per-fault integer thresholds once.
func (p *IndependentProcess) batchThresholds() []uint64 {
	p.batchOnce.Do(func() {
		p.thresholds = make([]uint64, p.fs.N())
		for i := range p.thresholds {
			p.thresholds[i] = BernoulliThreshold(p.fs.Fault(i).P)
		}
	})
	return p.thresholds
}

// DevelopRows implements Process: each fault's row is one
// randx.Stream.Hits call against the fault's precomputed threshold.
// Faults with p = 0 or p = 1 draw no variates.
func (p *IndependentProcess) DevelopRows(r *randx.Stream, width int, scratch []uint64) []uint64 {
	rows := scratch[:p.fs.N()]
	for i, t := range p.batchThresholds() {
		rows[i] = r.Hits(t, width)
	}
	return rows
}

// DevelopBatch is the column view of DevelopRows: it develops len(cols)
// <= 64 versions exactly as DevelopRows does and transposes the rows into
// the columns, overwriting each (clearing any stale state) with one
// lane's mask. The Monte-Carlo path scores rows directly; this form remains as
// the per-column development probe of perfbench (its
// devsim.develop_batch_ns_per_rep layer).
func (p *IndependentProcess) DevelopBatch(r *randx.Stream, cols []*Bitset, scratch []uint64) {
	scatterRows(p.DevelopRows(r, len(cols), scratch), cols, p.fs.N())
}

// batchThresholds builds the good-day and bad-day per-fault thresholds
// once.
func (p *CommonCauseProcess) batchThresholds() ([]uint64, []uint64) {
	p.batchOnce.Do(func() {
		p.thrHi = make([]uint64, len(p.hi))
		p.thrLo = make([]uint64, len(p.lo))
		for i := range p.hi {
			p.thrHi[i] = BernoulliThreshold(p.hi[i])
			p.thrLo[i] = BernoulliThreshold(p.lo[i])
		}
	})
	return p.thrHi, p.thrLo
}

// DevelopRows implements Process. One "bad day" coin mask is
// drawn per tile (no draw when rho = 0), and each fault blends its
// bad-day and good-day masks through it.
func (p *CommonCauseProcess) DevelopRows(r *randx.Stream, width int, scratch []uint64) []uint64 {
	rows := scratch[:len(p.hi)]
	day := r.Hits(BernoulliThreshold(p.rho), width)
	thrHi, thrLo := p.batchThresholds()
	for i := range rows {
		rows[i] = blendHits(r, thrHi[i], thrLo[i], day, width)
	}
	return rows
}

// batchThresholds builds the favoured/neglected per-fault thresholds
// once. The trailing unpaired fault (odd n) stores its plain threshold
// in both slots.
func (p *ResourceShiftProcess) batchThresholds() ([]uint64, []uint64) {
	p.batchOnce.Do(func() {
		n := p.fs.N()
		p.thrFav = make([]uint64, n)
		p.thrNeg = make([]uint64, n)
		for i := 0; i < n; i++ {
			pi := p.fs.Fault(i).P
			if i == n-1 && n%2 == 1 {
				p.thrFav[i] = BernoulliThreshold(pi)
				p.thrNeg[i] = p.thrFav[i]
				continue
			}
			p.thrFav[i] = BernoulliThreshold(pi * (1 - p.shift))
			p.thrNeg[i] = BernoulliThreshold(pi * (1 + p.shift))
		}
	})
	return p.thrFav, p.thrNeg
}

// halfThreshold is BernoulliThreshold(0.5): the fair coin deciding which
// member of a resource pair is favoured. Hits settles it in one word.
const halfThreshold = 1 << 52

// DevelopRows implements Process. Each pair draws one fair-coin
// mask choosing the favoured member per lane; each member then blends
// its favoured and neglected masks through it. The trailing unpaired
// fault of an odd universe draws at its plain probability with no coin.
func (p *ResourceShiftProcess) DevelopRows(r *randx.Stream, width int, scratch []uint64) []uint64 {
	n := p.fs.N()
	rows := scratch[:n]
	thrFav, thrNeg := p.batchThresholds()
	for pair := 0; pair+1 < n; pair += 2 {
		// A heads coin favours the first member.
		sel := r.Hits(halfThreshold, width)
		rows[pair] = blendHits(r, thrFav[pair], thrNeg[pair], sel, width)
		rows[pair+1] = blendHits(r, thrNeg[pair+1], thrFav[pair+1], sel, width)
	}
	if n%2 == 1 {
		rows[n-1] = r.Hits(thrFav[n-1], width)
	}
	return rows
}

// batchThresholds builds the per-fault thresholds once; only driver
// indices (the smaller of each pair, and untied faults) are consulted.
func (p *TiedPairsProcess) batchThresholds() []uint64 {
	p.batchOnce.Do(func() {
		p.thresholds = make([]uint64, p.fs.N())
		for i := range p.thresholds {
			p.thresholds[i] = BernoulliThreshold(p.fs.Fault(i).P)
		}
	})
	return p.thresholds
}

// DevelopRows implements Process. Each pair's driver (smaller
// index) draws one hit mask, which is written to both members' rows, so
// the pair shares one coin per lane. The fault-major row layout makes
// the tie a plain copy.
func (p *TiedPairsProcess) DevelopRows(r *randx.Stream, width int, scratch []uint64) []uint64 {
	n := p.fs.N()
	rows := scratch[:n]
	thr := p.batchThresholds()
	for i := 0; i < n; i++ {
		partner := p.pairOf[i]
		if partner >= 0 && partner < i {
			continue // the partner's draw already wrote this row
		}
		rows[i] = r.Hits(thr[i], width)
		if partner > i {
			rows[partner] = rows[i]
		}
	}
	return rows
}
