package system

import (
	"math/bits"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
)

// This file holds the allocation-free system-PFD kernels: RowScorer,
// which the Monte-Carlo harness scores every tile with, dense or sparse,
// and BitsetSystemPFD for one replication's bitset masks. Both reduce the
// adjudicator to its defeat threshold outside the per-fault loop and sum
// in ascending fault order — bit for bit the order System.PFD uses.

// BitsetSystemPFD computes the system PFD and defeating-fault count of an
// N-version pool from the versions' packed masks. For intersection rules
// (defeat threshold = pool size, i.e. 1-out-of-N) a fault defeats the
// system only when every version carries it, so the intersection is found
// by AND-ing the other masks onto the touched words of the first — O(k)
// in the faults present, never O(n). Other rules can be defeated by
// faults absent from the first version, so they scan the full word range
// and compare each union bit's stacked popcount against the threshold.
// An imperfect adjudication stage is folded into the returned PFD (the
// count stays the voting rule's). No Monte-Carlo run scores with it any
// more — sparse tiles go through RowScorer.ScoreSparse — but it remains
// the bitset reference RowScorer is tested against and perfbench's
// system.bitset_pfd_ns.1oo2 probe.
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
// (devsim.Process's DevelopRows, or devsim.IndependentProcess's
// DevelopSparseRows for Score's sparse twin ScoreSparse), with no
// transpose into per-replication columns. The rule is reduced to its
// defeat threshold once, when the scorer is built, and every adjudication
// is a handful of word-wide operations per fault. Each lane sums its q_i
// in ascending fault order — the order of the touched-word walks of
// devsim.BitsetPFD and BitsetSystemPFD over the same masks — so every PFD
// is bit for bit the one those functions return, and a sparse tile scores
// bit for bit as its dense rows do.
//
// A RowScorer is not safe for concurrent use; the Monte-Carlo harness
// builds one per worker.
type RowScorer struct {
	fs    *faultmodel.FaultSet
	q     []float64 // the q_i, copied on the first Score
	adj   Adjudicator
	m, th int
	// carry[t] holds the lanes with at least t carriers among the
	// versions folded so far (the k-out-of-N carrier-count recurrence).
	carry []uint64
	// ScoreSparse's merge state: the number of leading versions whose
	// faults it visits (m-th+1, or 1 when th is 0 or past m), each
	// version's cursor into its rows, and the versions' lanes for the
	// fault being scored, held in xs and viewed by defeated as one-fault
	// rows.
	lead int
	cur  []int
	xs   []uint64
	view [][]uint64
	// q0 holds the q_i of the first version's sparse rows, gathered in
	// one pass before the merge.
	q0 []float64
}

// NewRowScorer returns a scorer for pools of the given number of
// versions over fs, adjudicated by adj. It allocates nothing in
// proportion to the universe until the first dense Score.
func NewRowScorer(fs *faultmodel.FaultSet, adj Adjudicator, versions int) *RowScorer {
	th := DefeatThreshold(adj, versions)
	s := &RowScorer{
		fs: fs, adj: adj, m: versions, th: th, carry: make([]uint64, min(th, versions)+1),
		cur: make([]int, versions), xs: make([]uint64, versions), view: make([][]uint64, versions),
	}
	for v := range s.view {
		s.view[v] = s.xs[v : v+1 : v+1]
	}
	s.lead = 1
	if th >= 1 && th <= versions {
		s.lead = versions - th + 1
	}
	return s
}

// Score scores one tile of width <= 64 lanes. rows[v] holds version v's
// mask rows: bit j of rows[v][i] is fault i in lane j, with the bits past
// width clear. Score writes lane j's first-version PFD to vpfd[j] and its
// system PFD (the imperfect stage folded in, as BitsetSystemPFD does) to
// spfd[j]. It returns the lanes whose first version carries a fault and
// the lanes whose system has a defeating fault, so a lane's version or
// system is fault-free exactly when its bit there is clear.
func (s *RowScorer) Score(rows [][]uint64, width int, vpfd, spfd *[64]float64) (vAny, sAny uint64) {
	if s.q == nil {
		s.q = make([]float64, s.fs.N())
		for i := range s.q {
			s.q[i] = s.fs.Fault(i).Q
		}
	}
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
	s.applyStage(spfd, width)
	return vAny, sAny
}

// ScoreSparse is Score over sparse rows: rows[v] holds version v's
// devsim.SparseRow list, in ascending fault order with the lane bits past
// width clear. It merges the versions' lists and scores each fault that
// some version carries as Score scores its row, so a tile costs O(rows)
// whatever the universe size, and every PFD and returned lane mask is bit
// for bit what Score returns for the same masks as dense rows. A rule
// defeated even by absent faults (threshold 0) is the exception: every
// system lane sums all n regions, as Score's does.
func (s *RowScorer) ScoreSparse(rows [][]devsim.SparseRow, width int, vpfd, spfd *[64]float64) (vAny, sAny uint64) {
	clear(vpfd[:width])
	clear(spfd[:width])
	// The first version's faults each add to a lane, and their q_i lie
	// scattered over an array too large for the caches. One tight loop
	// of independent loads lets their misses overlap, where loading each
	// inside the merge would wait for them one at a time.
	s.q0 = s.q0[:0]
	for _, r := range rows[0] {
		s.q0 = append(s.q0, s.fs.Fault(int(r.Fault)).Q)
	}
	vAny, sAny = s.mergeSparse(rows, width, vpfd, spfd)
	if s.th == 0 {
		// Every fault, present or not, defeats every lane.
		sAny = s.defeated(nil, 0, width)
		for i := 0; i < s.fs.N(); i++ {
			addLanes(spfd, sAny, s.fs.Fault(i).Q)
		}
	}
	s.applyStage(spfd, width)
	return vAny, sAny
}

// mergeSparse scores sparse rows: it visits, in ascending order, every
// fault that one of the first lead versions carries, and finds its
// defeated lanes with defeated over the versions' lanes for it. Any
// other fault has at most th-1 carriers and is absent from the first
// version, so it adds to no lane: an intersection rule visits only the
// first version's faults, and the other versions' cursors follow. A rule
// defeated by no carrier count, or by none (threshold 0, which
// ScoreSparse completes), leaves the system lanes alone.
func (s *RowScorer) mergeSparse(rows [][]devsim.SparseRow, width int, vpfd, spfd *[64]float64) (vAny, sAny uint64) {
	cur, xs, leading := s.cur[:len(rows)], s.xs[:len(rows)], rows[:s.lead]
	clear(cur)
	for {
		// The next fault is the least one at a leading version's cursor.
		f := int32(-1)
		for v, r := range leading {
			if c := cur[v]; c < len(r) && (f < 0 || r[c].Fault < f) {
				f = r[c].Fault
			}
		}
		if f < 0 {
			return vAny, sAny
		}
		// Every cursor moves past f; only the others' can lag behind it.
		for v, r := range rows {
			c := cur[v]
			for c < len(r) && r[c].Fault < f {
				c++
			}
			xs[v] = 0
			if c < len(r) && r[c].Fault == f {
				xs[v] = r[c].Lanes
				c++
			}
			cur[v] = c
		}
		x, y := xs[0], uint64(0)
		if s.th != 0 {
			y = s.defeated(s.view, 0, width)
		}
		var q float64
		switch {
		case x != 0:
			q = s.q0[cur[0]-1]
		case y != 0:
			q = s.fs.Fault(int(f)).Q
		default:
			continue
		}
		vAny |= x
		addLanes(vpfd, x, q)
		sAny |= y
		addLanes(spfd, y, q)
	}
}

// applyStage folds the imperfect adjudication stage into the first width
// system PFDs.
func (s *RowScorer) applyStage(spfd *[64]float64, width int) {
	for j := range spfd[:width] {
		spfd[j] = ApplyStagePFD(s.adj, spfd[j])
	}
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
