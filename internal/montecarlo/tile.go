package montecarlo

import (
	"math/bits"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/system"
)

// maxRowWords bounds the row kernel's per-worker arena: every version
// holds one mask word per fault whatever the lane count, so a dense run
// costs versions·n words per worker. 1<<24 words is 128 MiB. A larger
// universe belongs to the sparse kernel, whose cost scales with the
// faults present rather than the faults possible.
const maxRowWords = 1 << 24

// kernel is a run's development kernel, chosen once per run from the
// configuration and the process's type: geometric skips per column for a
// sparse run of a SparseDeveloper (sparse set), and otherwise 64-lane
// fault-major rows (sparse nil).
type kernel struct {
	proc   devsim.Process
	sparse devsim.SparseDeveloper
}

// tileWorker is one worker's replication pipeline: it owns a stream that
// is reseeded for every block the worker claims, develops and scores one
// tile of replications per step, and records the tile's PFDs into its
// sink in replication order. The row kernel develops every version's
// fault-major mask rows for up to 64 replications and scores them with a
// system.RowScorer; the sparse kernel develops one bitset column per
// version and scores it with the bitset PFD walks. Everything is allocated
// once at construction and reused across blocks, so the steady state
// performs no allocations.
type tileWorker struct {
	r     *randx.Stream // the current block's stream
	width int           // replications per tile
	// tile develops and scores the next b <= width replications into
	// vpfd, spfd, vAny and sAny.
	tile  func(b int)
	skips int64 // geometric skip draws (sparse kernel)

	// The current tile's first-version and system PFDs, one per lane,
	// and the lanes whose version or system has a fault.
	vpfd, spfd [64]float64
	vAny, sAny uint64

	// Exactly one sink is active: the streaming aggregates (moments of
	// the current block only) or the buffered result slices, indexed by
	// global replication number.
	vAgg, sAgg            *Agg
	versionPFD, systemPFD []float64
	counts                [2]int // (versionFaultFree, systemFaultFree)
}

// newTileWorker builds the arena for one worker.
func newTileWorker(fs *faultmodel.FaultSet, adj system.Adjudicator, versions int, k kernel) *tileWorker {
	r := randx.NewStream(0)
	tw := &tileWorker{r: r, width: 1}
	if k.sparse == nil {
		tw.width = 64
		scorer := system.NewRowScorer(fs, adj, versions)
		rows := make([][]uint64, versions)
		scratch := make([][]uint64, versions)
		for v := range scratch {
			scratch[v] = make([]uint64, devsim.BatchScratchLen(64, fs.N()))
		}
		tw.tile = func(b int) {
			for v := range rows {
				rows[v] = k.proc.DevelopRows(r, b, scratch[v])
			}
			tw.vAny, tw.sAny = scorer.Score(rows, b, &tw.vpfd, &tw.spfd)
		}
		return tw
	}
	cols := make([]*devsim.Bitset, versions)
	for v := range cols {
		cols[v] = devsim.NewBitset(fs.N())
	}
	tw.tile = func(int) {
		for _, col := range cols {
			tw.skips += int64(k.sparse.DevelopSparse(r, col))
		}
		vpfd, vcount := devsim.BitsetPFD(fs, cols[0])
		spfd, scount := system.BitsetSystemPFD(fs, adj, cols)
		tw.vpfd[0], tw.spfd[0] = vpfd, spfd
		tw.vAny, tw.sAny = uint64(min(vcount, 1)), uint64(min(scount, 1))
	}
	return tw
}

// run simulates replications [lo, hi) in tiles — version-major, so a
// one-replication tile draws exactly one replication's versions in order
// — and records each tile's replications in order.
func (tw *tileWorker) run(lo, hi int) {
	for base := lo; base < hi; base += tw.width {
		b := min(tw.width, hi-base)
		tw.tile(b)
		if tw.vAgg != nil {
			for _, v := range tw.vpfd[:b] {
				tw.vAgg.Observe(v)
			}
			for _, s := range tw.spfd[:b] {
				tw.sAgg.Observe(s)
			}
		} else {
			copy(tw.versionPFD[base:base+b], tw.vpfd[:b])
			copy(tw.systemPFD[base:base+b], tw.spfd[:b])
		}
		tw.counts[0] += b - bits.OnesCount64(tw.vAny)
		tw.counts[1] += b - bits.OnesCount64(tw.sAny)
	}
}
