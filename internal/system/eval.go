package system

import (
	"math/bits"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
)

// This file holds the allocation-free system-PFD kernels the Monte-Carlo
// harness scores every replication with: BitsetSystemPFD for one
// replication's masks and RowScorer for a dense tile's fault-major
// rows. Both reduce the adjudicator to its defeat threshold outside the
// per-fault loop and sum in ascending fault order — bit for bit the
// order System.PFD uses.

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

// RowScorer is the row kernel's evaluation: it scores a whole tile of up
// to 64 replications from the fault-major mask rows the tile was drawn in
// (devsim.Process's DevelopRows), with no transpose into per-replication
// columns. The rule is reduced to its defeat threshold once, when the
// scorer is built, and every adjudication is a handful of word-wide
// operations per fault. Each lane sums its q_i in ascending fault order —
// the order of the touched-word walks of devsim.BitsetPFD and
// BitsetSystemPFD over the same masks — so every PFD is bit for bit the
// one those functions return.
//
// A RowScorer is not safe for concurrent use; the Monte-Carlo harness
// builds one per worker.
type RowScorer struct {
	q     []float64
	adj   Adjudicator
	m, th int
	// carry[t] holds the lanes with at least t carriers among the
	// versions folded so far (the k-out-of-N carrier-count recurrence).
	carry []uint64
}

// NewRowScorer returns a scorer for pools of the given number of
// versions over fs, adjudicated by adj.
func NewRowScorer(fs *faultmodel.FaultSet, adj Adjudicator, versions int) *RowScorer {
	q := make([]float64, fs.N())
	for i := range q {
		q[i] = fs.Fault(i).Q
	}
	th := DefeatThreshold(adj, versions)
	return &RowScorer{q: q, adj: adj, m: versions, th: th, carry: make([]uint64, min(th, versions)+1)}
}

// Score scores one tile of width <= 64 lanes. rows[v] holds version v's
// mask rows: bit j of rows[v][i] is fault i in lane j, with the bits past
// width clear. Score writes lane j's first-version PFD to vpfd[j] and its
// system PFD (the imperfect stage folded in, as BitsetSystemPFD does) to
// spfd[j]. It returns the lanes whose first version carries a fault and
// the lanes whose system has a defeating fault, so a lane's version or
// system is fault-free exactly when its bit there is clear.
func (s *RowScorer) Score(rows [][]uint64, width int, vpfd, spfd *[64]float64) (vAny, sAny uint64) {
	clear(vpfd[:width])
	clear(spfd[:width])
	for i, q := range s.q {
		x := rows[0][i]
		vAny |= x
		addLanes(vpfd, x, q)
		y := s.defeated(rows, i, width)
		sAny |= y
		addLanes(spfd, y, q)
	}
	for j := range spfd[:width] {
		spfd[j] = ApplyStagePFD(s.adj, spfd[j])
	}
	return vAny, sAny
}

// defeated returns the lanes in which fault i defeats the rule; width is
// the number of live lanes.
func (s *RowScorer) defeated(rows [][]uint64, i, width int) uint64 {
	switch {
	case s.th > s.m:
		return 0
	case s.th == 0:
		if width >= 64 {
			return ^uint64(0)
		}
		return 1<<uint(width) - 1
	case s.th == s.m:
		x := rows[0][i]
		for _, r := range rows[1:] {
			x &= r[i]
		}
		return x
	}
	c := s.carry
	c[0] = ^uint64(0)
	clear(c[1:])
	for v, r := range rows {
		x := r[i]
		for t := min(v+1, s.th); t >= 1; t-- {
			c[t] |= c[t-1] & x
		}
	}
	return c[s.th]
}

// addLanes adds q to every lane of p whose bit is set in x.
func addLanes(p *[64]float64, x uint64, q float64) {
	for x != 0 {
		p[bits.TrailingZeros64(x)] += q
		x &= x - 1
	}
}
