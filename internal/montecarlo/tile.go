package montecarlo

import (
	"math/bits"

	"diversity/internal/devsim"
	"diversity/internal/randx"
	"diversity/internal/system"
)

// maxRowWords bounds the dense tile's per-worker arena: every version
// holds one mask word per fault whatever the lane count, so a dense run
// costs versions·n words per worker. 1<<24 words is 128 MiB. A larger
// universe belongs to sparse tiles, whose cost scales with the faults
// present rather than the faults possible.
const maxRowWords = 1 << 24

// tileWidth is the number of replications in a tile: the lanes of one
// mask word. The last tile of a block uses fewer lanes.
const tileWidth = 64

// tileWorker is one worker's replication pipeline: it owns a stream that
// is reseeded for every block the worker claims, develops and scores one
// tile of up to 64 replications per step, and records the tile's PFDs
// into its sink in replication order. A tile is every version's
// fault-major mask rows, scored by a system.RowScorer. Dense tiles hold
// one row per fault (devsim.Process's DevelopRows, scored by Score);
// sparse tiles, for a Sparse run of the independent process, hold only
// the rows of faults present in some lane
// (devsim.IndependentProcess.DevelopSparseRows, scored by ScoreSparse).
// Everything is allocated once at construction and grows only to the
// largest tile seen, so the steady state performs no allocations.
type tileWorker struct {
	r      *randx.Stream // the current block's stream
	proc   devsim.Process
	scorer *system.RowScorer
	// Exactly one tile form is set: sparse and sparseRows for sparse
	// tiles, rows and scratch for dense ones.
	sparse        *devsim.IndependentProcess
	sparseRows    [][]devsim.SparseRow
	rows, scratch [][]uint64
	skips         int64 // geometric skip draws (sparse tiles)

	// The current tile's first-version and system PFDs, one per lane,
	// and the lanes whose version or system has a fault.
	vpfd, spfd [tileWidth]float64
	vAny, sAny uint64

	// Exactly one sink is active: the streaming aggregates (moments of
	// the current block only) or the buffered result slices, indexed by
	// global replication number.
	vAgg, sAgg            *Agg
	versionPFD, systemPFD []float64
	counts                [2]int // (versionFaultFree, systemFaultFree)
}

// newTileWorker builds the arena for one worker. sparse is the run's
// sparse sampler, or nil for dense tiles.
func newTileWorker(proc devsim.Process, sparse *devsim.IndependentProcess, adj system.Adjudicator, versions int) *tileWorker {
	fs := proc.FaultSet()
	tw := &tileWorker{
		r: randx.NewStream(0), proc: proc, sparse: sparse,
		scorer: system.NewRowScorer(fs, adj, versions),
	}
	if sparse != nil {
		tw.sparseRows = make([][]devsim.SparseRow, versions)
		return tw
	}
	tw.rows = make([][]uint64, versions)
	tw.scratch = make([][]uint64, versions)
	for v := range tw.scratch {
		tw.scratch[v] = make([]uint64, devsim.BatchScratchLen(tileWidth, fs.N()))
	}
	return tw
}

// tile develops and scores the next b <= tileWidth replications into
// vpfd, spfd, vAny and sAny: every version's rows in version order, then
// one scoring pass over them.
func (tw *tileWorker) tile(b int) {
	if tw.sparse != nil {
		for v, rows := range tw.sparseRows {
			var skips int
			tw.sparseRows[v], skips = tw.sparse.DevelopSparseRows(tw.r, b, rows)
			tw.skips += int64(skips)
		}
		tw.vAny, tw.sAny = tw.scorer.ScoreSparse(tw.sparseRows, b, &tw.vpfd, &tw.spfd)
		return
	}
	for v := range tw.rows {
		tw.rows[v] = tw.proc.DevelopRows(tw.r, b, tw.scratch[v])
	}
	tw.vAny, tw.sAny = tw.scorer.Score(tw.rows, b, &tw.vpfd, &tw.spfd)
}

// run simulates replications [lo, hi) in tiles — version-major, so a
// one-replication tile draws exactly one replication's versions in order
// — and records each tile's replications in order.
func (tw *tileWorker) run(lo, hi int) {
	for base := lo; base < hi; base += tileWidth {
		b := min(tileWidth, hi-base)
		tw.tile(b)
		if tw.vAgg != nil {
			bins := histBinTable()
			for _, v := range tw.vpfd[:b] {
				tw.vAgg.observe(bins, v)
			}
			for _, s := range tw.spfd[:b] {
				tw.sAgg.observe(bins, s)
			}
		} else {
			copy(tw.versionPFD[base:base+b], tw.vpfd[:b])
			copy(tw.systemPFD[base:base+b], tw.spfd[:b])
		}
		tw.counts[0] += b - bits.OnesCount64(tw.vAny)
		tw.counts[1] += b - bits.OnesCount64(tw.sAny)
	}
}
