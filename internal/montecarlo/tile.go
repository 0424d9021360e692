package montecarlo

import (
	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/system"
)

// maxBatchArenaWords bounds the per-worker arena of the batched kernel:
// versions × width bitset columns of (n+63)/64 words each, plus the
// fault-major mask rows the development transpose reads (about one more
// column arena's worth). 1<<22 words is 32 MiB per worker — wide enough
// that every practical scenario gets its full requested width, small
// enough that a wide request over a million-fault universe cannot
// exhaust memory across many workers.
const maxBatchArenaWords = 1 << 22

// effectiveBatchWidth clamps a requested tile width to the arena
// budget. The clamp is a pure function of the run's configuration, so
// fixed-seed reproducibility (per seed and width) is unaffected by the
// machine the run lands on.
func effectiveBatchWidth(width, versions, n int) int {
	words := (n + 63) / 64
	if words < 1 {
		words = 1
	}
	// versions column arenas plus one arena-equivalent of mask rows.
	if budget := maxBatchArenaWords / ((versions + 1) * words); budget < width {
		width = budget
	}
	if width < 1 {
		width = 1
	}
	return width
}

// kernel is a run's development kernel, chosen once per run from the
// configuration and the process: fault-major tiles when batch is set,
// geometric skips per column when sparse is set, and otherwise the
// process's dense DevelopInto per column. Only the batched kernel tiles
// wider than one column.
type kernel struct {
	proc   devsim.Process
	batch  devsim.BatchDeveloper
	sparse devsim.SparseDeveloper
	width  int
}

// tileWorker is one worker's replication pipeline: it owns a tile of
// bitset columns per version and a stream that is reseeded for every
// block the worker claims, fills one tile per step with the run's
// kernel, and scores every column with the shared bitset PFD walks into
// its sink. Columns and draw scratch are allocated once at construction
// and reused across blocks, so the steady state performs no allocations.
type tileWorker struct {
	fs   *faultmodel.FaultSet
	adj  system.Adjudicator
	r    *randx.Stream      // the current block's stream
	cols [][]*devsim.Bitset // [version][slot]: the column arena
	slot []*devsim.Bitset   // one replication's masks across versions
	// fill develops one version's columns for a tile.
	fill  func(cols []*devsim.Bitset)
	skips int64 // geometric skip draws (sparse kernel)

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
	tw := &tileWorker{
		fs: fs, adj: adj, r: r,
		cols: make([][]*devsim.Bitset, versions),
		slot: make([]*devsim.Bitset, versions),
	}
	for v := range tw.cols {
		tw.cols[v] = make([]*devsim.Bitset, k.width)
		for j := range tw.cols[v] {
			tw.cols[v][j] = devsim.NewBitset(fs.N())
		}
	}
	switch {
	case k.batch != nil:
		draws := make([]uint64, devsim.BatchScratchLen(k.width, fs.N()))
		tw.fill = func(cols []*devsim.Bitset) { k.batch.DevelopBatch(r, cols, draws) }
	case k.sparse != nil:
		tw.fill = func(cols []*devsim.Bitset) {
			for _, col := range cols {
				tw.skips += int64(k.sparse.DevelopSparse(r, col))
			}
		}
	default:
		tw.fill = func(cols []*devsim.Bitset) {
			for _, col := range cols {
				k.proc.DevelopInto(r, col)
			}
		}
	}
	return tw
}

// run simulates replications [lo, hi) in tiles: develop every version's
// columns for the tile — version-major, so a one-column tile draws
// exactly one replication's versions in order — then score and record
// the tile's replications in order.
func (tw *tileWorker) run(lo, hi int) {
	width := len(tw.cols[0])
	for base := lo; base < hi; base += width {
		b := min(width, hi-base)
		for _, cols := range tw.cols {
			tw.fill(cols[:b])
		}
		for j := 0; j < b; j++ {
			for v, cols := range tw.cols {
				tw.slot[v] = cols[j]
			}
			vpfd, vcount := devsim.BitsetPFD(tw.fs, tw.slot[0])
			spfd, scount := system.BitsetSystemPFD(tw.fs, tw.adj, tw.slot)
			if tw.vAgg != nil {
				tw.vAgg.Observe(vpfd)
				tw.sAgg.Observe(spfd)
			} else {
				tw.versionPFD[base+j] = vpfd
				tw.systemPFD[base+j] = spfd
			}
			if vcount == 0 {
				tw.counts[0]++
			}
			if scount == 0 {
				tw.counts[1]++
			}
		}
	}
}
