package devsim

import (
	"cmp"
	"slices"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// SparseRow is one fault's row of a sparse tile: bit j of Lanes is the
// fault's presence in lane j. A tile's sparse rows are the nonzero rows
// of its dense fault-major form (Process.DevelopRows), in ascending fault
// order, so a tile costs memory in the faults present rather than the
// faults possible.
type SparseRow struct {
	Fault int32
	Lanes uint64
}

// minGeometricGroup is the smallest group size worth skip-sampling: below
// it, one Hits mask per fault is cheaper than the logarithm a geometric
// gap costs, and heterogeneous-p universes (every group a singleton)
// degrade gracefully to the dense cost instead of paying for useless
// skips.
const minGeometricGroup = 4

// faultGroup is a set of faults sharing one presence probability — all
// of them, unless there are more than maxGroupSize — in ascending fault
// order. A group whose faults form one contiguous
// index range — the common case for grouped universes — is addressed by
// offset alone (fault index = lo + position), with no materialised index
// slice: skip positions then translate to fault indices arithmetically
// instead of through a random read into a large per-group array, which
// would cost a cache miss per surviving fault.
type faultGroup struct {
	sampler randx.GeometricSampler
	// lo and size describe a contiguous group; indices is nil then.
	// Groups assembled from multiple runs (or split by p = 0 holes)
	// materialise indices instead, and size mirrors its length.
	lo      int32
	size    int
	indices []int32
	// dense selects one Hits mask per fault, at threshold thr, instead
	// of geometric gap-skipping, for groups too small to amortise the
	// logarithm.
	dense bool
	thr   uint64
}

// fault returns the index of the group's fault at position pos.
func (g *faultGroup) fault(pos int) int32 {
	if g.indices == nil {
		return g.lo + int32(pos)
	}
	return g.indices[pos]
}

// maxGroupSize caps a group so its grid of size × 64 cells stays within
// randx.MaxGap, the largest bound a skip loop may have: a larger equal-p
// set splits into several groups, whose draws have the same law. Only a
// 32-bit platform reaches the cap, at 2^24 - 1 faults.
const maxGroupSize = randx.MaxGap / 64

// sparseGroups builds (once) the equal-p fault groups the sparse kernel
// skips within; see groupFaults.
func (p *IndependentProcess) sparseGroups() []faultGroup {
	p.sparseOnce.Do(func() { p.groups, p.ordered = groupFaults(p.fs, maxGroupSize) })
	return p.groups
}

// groupFaults groups fs's faults by their shared p, no group larger than
// maxSize. Faults with p = 0 are omitted entirely — they can never be
// present, so the kernel spends nothing on them. The scan detects
// maximal runs of equal p first — one float comparison per fault — and
// only touches the merge map once per run, so grouped universes (the
// layout the kernel targets) index in O(n) cheap compares instead of
// O(n) map operations; a worst-case alternating-p layout degrades to
// one map operation per fault, no worse than mapping every fault.
//
// Groups are numbered in order of their first fault, so when every group
// is one run, visiting them in order visits the faults in ascending
// order (ordered); a group of several runs interleaves with others.
func groupFaults(fs *faultmodel.FaultSet, maxSize int) (groups []faultGroup, ordered bool) {
	groupOf := make(map[float64]int)
	cur := -1 // group index of the run in progress, -1 = none
	for i := 0; i < fs.N(); i++ {
		pi := fs.Fault(i).P
		g := cur
		if cur < 0 || pi != groups[cur].sampler.P() {
			if pi == 0 {
				cur = -1
				continue
			}
			var seen bool
			if g, seen = groupOf[pi]; !seen {
				g = -1
			}
		}
		if g >= 0 && groups[g].size == maxSize {
			g = -1 // full: the p's later faults start another group
		}
		switch {
		case g < 0:
			g = len(groups)
			groupOf[pi] = g
			groups = append(groups, faultGroup{sampler: randx.NewGeometricSampler(pi), lo: int32(i)})
		case g != cur && groups[g].indices == nil:
			// A second run of an already-seen p: the group is no longer
			// contiguous, so materialise its index slice.
			grp := &groups[g]
			grp.indices = make([]int32, grp.size, grp.size+1)
			for j := range grp.indices {
				grp.indices[j] = grp.lo + int32(j)
			}
		}
		grp := &groups[g]
		if grp.indices != nil {
			grp.indices = append(grp.indices, int32(i))
		}
		grp.size++
		cur = g
	}
	ordered = true
	for g := range groups {
		grp := &groups[g]
		ordered = ordered && grp.indices == nil
		grp.dense = grp.size < minGeometricGroup
		grp.thr = BernoulliThreshold(grp.sampler.P())
	}
	return groups, ordered
}

// DevelopSparseRows develops width <= 64 independent versions — a tile's
// lanes — as sparse rows, appended to out[:0]. Within each equal-p group
// it skip-samples the group's size×width grid of (fault, lane) cells in
// fault-major order: cell c is lane c mod width of the group's fault at
// position c div width, and the gap to the next present cell is
// Geometric(p). Hits on one fault OR into one row. A tile therefore costs
// one logarithm per present (fault, lane) plus one per group, rather than
// DevelopRows' O(n) masks; groups smaller than minGeometricGroup draw one
// randx.Stream.Hits mask per fault instead. The rows come out in
// ascending fault order, fragmented groups included. The draws differ
// from DevelopRows', but every lane has the same law.
//
// It returns the rows and the number of geometric gaps drawn. The rows
// alias out's array when it is large enough, so passing each call's
// result back as the next call's out keeps the steady state
// allocation-free.
func (p *IndependentProcess) DevelopSparseRows(r *randx.Stream, width int, out []SparseRow) ([]SparseRow, int) {
	out = out[:0]
	skips := 0
	groups := p.sparseGroups()
	for gi := range groups {
		g := &groups[gi]
		if g.dense {
			for pos := 0; pos < g.size; pos++ {
				if lanes := r.Hits(g.thr, width); lanes != 0 {
					out = append(out, SparseRow{g.fault(pos), lanes})
				}
			}
			continue
		}
		cells := g.size * width
		for c := g.sampler.Next(r); c < cells; c += 1 + g.sampler.Next(r) {
			pos, lane := c>>6, c&63 // a full tile's cells, without a division
			if width != 64 {
				pos, lane = c/width, c%width
			}
			f, bit := g.fault(pos), uint64(1)<<uint(lane)
			if last := len(out) - 1; last >= 0 && out[last].Fault == f {
				out[last].Lanes |= bit
			} else {
				out = append(out, SparseRow{f, bit})
			}
			skips++
		}
		skips++ // the final gap that overshot the grid
	}
	if !p.ordered {
		slices.SortFunc(out, func(a, b SparseRow) int { return cmp.Compare(a.Fault, b.Fault) })
	}
	return out, skips
}

// DevelopSparse develops one version into mask, clearing it first, and
// returns the geometric gaps drawn: it is a one-lane DevelopSparseRows
// whose rows are Set in ascending fault order, as Develop is a one-lane
// DevelopRows. For a universe of contiguous groups the gaps are those of
// skip-sampling each group's faults one by one. It allocates its rows on
// every call; the Monte-Carlo path develops whole tiles with
// DevelopSparseRows instead.
func (p *IndependentProcess) DevelopSparse(r *randx.Stream, mask *Bitset) int {
	mask.Reset()
	rows, skips := p.DevelopSparseRows(r, 1, nil)
	for _, row := range rows {
		mask.Set(int(row.Fault))
	}
	return skips
}
