// Package devsim simulates the fault creation process: it "develops"
// program versions by sampling which potential faults of a
// faultmodel.FaultSet survive into each delivered version.
//
// The paper's core model assumes mistakes are mutually independent
// (IndependentProcess). Section 6.1 discusses how reality may deviate —
// positive correlation from common conceptual errors, negative correlation
// from schedule pressure shifting effort between fault classes — so the
// package also provides CommonCauseProcess and ResourceShiftProcess, which
// preserve each fault's marginal presence probability while inducing the
// respective correlation structure. Experiment E13 measures how far those
// deviations move the model's predictions.
package devsim

import (
	"fmt"
	"math/bits"
	"sync"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// Version is one developed program version: the subset of potential faults
// that survived its development, together with the resulting PFD. The
// fault subset is stored as a packed Bitset so intersections between
// versions reduce to word-wise AND + popcount.
type Version struct {
	mask  *Bitset
	pfd   float64
	count int
}

// BitsetPFD sums the region probabilities of the faults present in a
// packed mask and counts them — the PFD of the version the mask
// describes. It walks only the touched words, so the cost is O(k) in the
// present faults regardless of universe size; for masks filled in
// ascending word order (Develop, DevelopBatch) the q_i sum runs in
// ascending fault order, the order system.RowScorer sums each lane in.
func BitsetPFD(fs *faultmodel.FaultSet, mask *Bitset) (pfd float64, count int) {
	for _, tw := range mask.Touched() {
		w := int(tw)
		x := mask.Word(w)
		count += bits.OnesCount64(x)
		for x != 0 {
			pfd += fs.Fault(w<<6 + bits.TrailingZeros64(x)).Q
			x &= x - 1
		}
	}
	return pfd, count
}

// develop is every process's Develop: a one-lane DevelopRows, whose
// nonzero rows are Set into a fresh mask in ascending fault order, so
// the mask's touched words are ascending and its PFD sums in ascending
// fault order.
func develop(p Process, r *randx.Stream) *Version {
	fs := p.FaultSet()
	v := &Version{mask: NewBitset(fs.N())}
	for i, row := range p.DevelopRows(r, 1, make([]uint64, BatchScratchLen(1, fs.N()))) {
		if row != 0 {
			v.mask.Set(i)
		}
	}
	v.pfd, v.count = BitsetPFD(fs, v.mask)
	return v
}

// Has reports whether potential fault i is present in the version.
// It panics if i is out of range, mirroring slice indexing.
func (v *Version) Has(i int) bool { return v.mask.Test(i) }

// PFD returns the version's probability of failure on demand: the summed
// region probabilities of its faults (disjoint-region assumption).
func (v *Version) PFD() float64 { return v.pfd }

// FaultCount returns the number of faults present.
func (v *Version) FaultCount() int { return v.count }

// NumPotential returns the size of the underlying potential-fault universe.
func (v *Version) NumPotential() int { return v.mask.Len() }

// checkUniverses verifies every version was developed against the same
// fault universe size as fs.
func checkUniverses(fs *faultmodel.FaultSet, versions []*Version) error {
	if len(versions) == 0 {
		return fmt.Errorf("devsim: at least one version is required")
	}
	for i, v := range versions {
		if v.mask.Len() != fs.N() {
			return fmt.Errorf("devsim: mismatched fault universes: version %d has %d faults, set has %d",
				i, v.mask.Len(), fs.N())
		}
	}
	return nil
}

// CommonPFD returns the PFD of the 1-out-of-N system built from the given
// versions: the summed q_i of faults present in every version (the
// intersection of failure regions, paper Section 2.1, with the pair m = 2
// as the paper's case). The intersection is found by word-wise AND across
// all N packed masks, walking only the set bits of each nonzero
// intersection word; the q_i sum still runs in ascending fault order, so
// results are bitwise identical to the historical []bool loop. It returns
// an error if no versions are given or any version was developed against
// a different fault universe size than fs.
func CommonPFD(fs *faultmodel.FaultSet, versions ...*Version) (float64, error) {
	if err := checkUniverses(fs, versions); err != nil {
		return 0, err
	}
	sum := 0.0
	first := versions[0]
	for w := 0; w < first.mask.NumWords(); w++ {
		x := first.mask.Word(w)
		for _, v := range versions[1:] {
			x &= v.mask.Word(w)
			if x == 0 {
				break
			}
		}
		for x != 0 {
			sum += fs.Fault(w<<6 + bits.TrailingZeros64(x)).Q
			x &= x - 1
		}
	}
	return sum, nil
}

// Process develops program versions against a fixed fault universe.
// Implementations must be safe for concurrent use by multiple goroutines,
// each supplying its own random stream and scratch — the Monte-Carlo
// harness relies on this to shard replications across workers.
type Process interface {
	// DevelopRows develops width <= 64 independent versions — a tile's
	// lanes — and returns their fault-major mask rows, one word per
	// fault: bit j of rows[i] is fault i's presence in lane j, and the
	// bits past width are clear. Every Bernoulli mask, a fault's or a
	// latent coin's, comes from one randx.Stream.Hits call, which
	// decides all lanes bit-serially in about 7 generator words against
	// the threshold BernoulliThreshold gives. A correlated process
	// blends two such masks through a latent-coin mask (the common-cause
	// day, the resource-shift pair's favoured member) and draws only a
	// mask that some lane selects. The rows are the form the evaluation
	// kernel scores (system.RowScorer); nothing on the Monte-Carlo path
	// transposes them into per-lane columns.
	//
	// scratch is caller-owned space of length >= BatchScratchLen(width,
	// n) that holds the mask rows; the returned slice aliases it until
	// the next call with the same scratch. Reusing one scratch slice
	// across calls keeps the steady state allocation-free.
	DevelopRows(r *randx.Stream, width int, scratch []uint64) []uint64
	// FaultSet returns the potential-fault universe the process samples
	// from.
	FaultSet() *faultmodel.FaultSet
}

// IndependentProcess is the paper's model of separate development: each
// potential fault is introduced independently with its probability p_i
// ("as though the design team tossed dice", Section 2.2).
type IndependentProcess struct {
	fs *faultmodel.FaultSet

	// Sparse-kernel state, built lazily on first DevelopSparse: faults
	// grouped by their shared p value, each group with a precomputed
	// geometric skip sampler.
	sparseOnce sync.Once
	groups     []faultGroup

	// Row-kernel state, built lazily on first DevelopRows: one integer
	// Bernoulli threshold per fault (see BernoulliThreshold).
	batchOnce  sync.Once
	thresholds []uint64
}

// minGeometricGroup is the smallest group size worth skip-sampling: below
// it, one Bernoulli draw per fault is cheaper than the logarithm a
// geometric gap costs, and heterogeneous-p universes (every group a
// singleton) degrade gracefully to the dense cost instead of paying for
// useless skips.
const minGeometricGroup = 4

// faultGroup is a maximal set of faults sharing one presence probability,
// in ascending fault order. A group whose faults form one contiguous
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
	// dense selects one Bernoulli draw per fault instead of geometric
	// gap-skipping, for groups too small to amortise the logarithm.
	dense bool
}

var _ Process = (*IndependentProcess)(nil)

// NewIndependentProcess returns a Process implementing independent fault
// introduction over fs.
func NewIndependentProcess(fs *faultmodel.FaultSet) *IndependentProcess {
	return &IndependentProcess{fs: fs}
}

// Develop develops one version: lane 0 of a one-lane DevelopRows.
func (p *IndependentProcess) Develop(r *randx.Stream) *Version { return develop(p, r) }

// sparseGroups builds (once) the equal-p fault groups the sparse kernel
// skips within. Faults with p = 0 are omitted entirely — they can never
// be present, so the kernel spends nothing on them. The scan detects
// maximal runs of equal p first — one float comparison per fault — and
// only touches the merge map once per run, so grouped universes (the
// layout the kernel targets) index in O(n) cheap compares instead of
// O(n) map operations; a worst-case alternating-p layout degrades to
// one map operation per fault, no worse than mapping every fault.
func (p *IndependentProcess) sparseGroups() []faultGroup {
	p.sparseOnce.Do(func() {
		groupOf := make(map[float64]int)
		cur := -1 // group index of the run in progress, -1 = none
		curP := 0.0
		for i := 0; i < p.fs.N(); i++ {
			pi := p.fs.Fault(i).P
			if cur >= 0 && pi == curP {
				g := &p.groups[cur]
				if g.indices == nil {
					g.size++
				} else {
					g.indices = append(g.indices, int32(i))
				}
				continue
			}
			if pi == 0 {
				cur = -1
				continue
			}
			g, seen := groupOf[pi]
			if !seen {
				g = len(p.groups)
				groupOf[pi] = g
				p.groups = append(p.groups, faultGroup{
					sampler: randx.NewGeometricSampler(pi),
					lo:      int32(i),
					size:    1,
				})
				cur, curP = g, pi
				continue
			}
			// A second run of an already-seen p: the group is no longer
			// contiguous, so materialise its index slice.
			grp := &p.groups[g]
			if grp.indices == nil {
				grp.indices = make([]int32, 0, grp.size+1)
				for j := int32(0); j < int32(grp.size); j++ {
					grp.indices = append(grp.indices, grp.lo+j)
				}
			}
			grp.indices = append(grp.indices, int32(i))
			cur, curP = g, pi
		}
		for g := range p.groups {
			grp := &p.groups[g]
			if grp.indices != nil {
				grp.size = len(grp.indices)
			}
			grp.dense = grp.size < minGeometricGroup
		}
	})
	return p.groups
}

// DevelopSparse implements SparseDeveloper. Within each equal-p group the
// survivor set is sampled by geometric gap-skipping — the gap to the next
// introduced fault is Geometric(p), so the cost is one logarithm per
// survivor plus one per group, O(k + groups) rather than O(n). The draws
// differ from DevelopRows' but the sampled distribution is identical.
func (p *IndependentProcess) DevelopSparse(r *randx.Stream, mask *Bitset) int {
	mask.Reset()
	skips := 0
	for _, g := range p.sparseGroups() {
		if g.dense {
			pi := g.sampler.P()
			if g.indices == nil {
				for i := g.lo; i < g.lo+int32(g.size); i++ {
					if r.BernoulliValidated(pi) {
						mask.Set(int(i))
					}
				}
			} else {
				for _, i := range g.indices {
					if r.BernoulliValidated(pi) {
						mask.Set(int(i))
					}
				}
			}
			continue
		}
		if g.indices == nil {
			for pos := g.sampler.Next(r); pos < g.size; pos += 1 + g.sampler.Next(r) {
				mask.Set(int(g.lo) + pos)
				skips++
			}
		} else {
			for pos := g.sampler.Next(r); pos < len(g.indices); pos += 1 + g.sampler.Next(r) {
				mask.Set(int(g.indices[pos]))
				skips++
			}
		}
		skips++ // the final gap that overshot the group
	}
	return skips
}

// FaultSet implements Process.
func (p *IndependentProcess) FaultSet() *faultmodel.FaultSet { return p.fs }
