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

	// Sparse-kernel state, built lazily on first DevelopSparseRows:
	// faults grouped by their shared p value, each group with a
	// precomputed geometric skip sampler, and whether the groups,
	// visited in order, emit their faults in ascending order.
	sparseOnce sync.Once
	groups     []faultGroup
	ordered    bool

	// Row-kernel state, built lazily on first DevelopRows: one integer
	// Bernoulli threshold per fault (see BernoulliThreshold).
	batchOnce  sync.Once
	thresholds []uint64
}

var _ Process = (*IndependentProcess)(nil)

// NewIndependentProcess returns a Process implementing independent fault
// introduction over fs.
func NewIndependentProcess(fs *faultmodel.FaultSet) *IndependentProcess {
	return &IndependentProcess{fs: fs}
}

// Develop develops one version: lane 0 of a one-lane DevelopRows.
func (p *IndependentProcess) Develop(r *randx.Stream) *Version { return develop(p, r) }

// FaultSet implements Process.
func (p *IndependentProcess) FaultSet() *faultmodel.FaultSet { return p.fs }
