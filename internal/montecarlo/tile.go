package montecarlo

import (
	"math/bits"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/system"
)

// maxBatchArenaWords bounds the per-worker arena of the batched kernel:
// one set of fault-major mask rows per version, n·ceil(width/64) words
// each — about width × (n+63)/64, the size of a width-column bitset
// arena. 1<<22 words is 32 MiB per worker — wide enough that every
// practical scenario gets its full requested width, small enough that a
// wide request over a million-fault universe cannot exhaust memory across
// many workers.
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
	// versions row arenas plus one arena's headroom. The clamp fixes the
	// width, and so every fixed-seed batched output: keep it as it is.
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
// wider than one replication.
type kernel struct {
	proc   devsim.Process
	batch  devsim.BatchDeveloper
	sparse devsim.SparseDeveloper
	width  int
}

// tileWorker is one worker's replication pipeline: it owns a stream that
// is reseeded for every block the worker claims, develops and scores one
// tile of replications per step, and records the tile's PFDs into its
// sink in replication order. The batched kernel develops every version's
// fault-major mask rows and scores them with a system.RowScorer; the
// dense and sparse kernels develop one bitset column per version and
// score it with the bitset PFD walks. Everything is allocated once at
// construction and reused across blocks, so the steady state performs no
// allocations.
type tileWorker struct {
	r     *randx.Stream // the current block's stream
	width int           // replications per tile
	// tile develops and scores the next b <= width replications into
	// vpfd, spfd, vAny and sAny.
	tile  func(b int)
	skips int64 // geometric skip draws (sparse kernel)

	// The current tile's first-version and system PFDs, one per lane
	// (64 per lane group), and per lane group the lanes whose version or
	// system has a fault.
	vpfd, spfd []float64
	vAny, sAny []uint64

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
	g := (k.width + 63) / 64
	tw := &tileWorker{
		r: r, width: k.width,
		vpfd: make([]float64, 64*g), spfd: make([]float64, 64*g),
		vAny: make([]uint64, g), sAny: make([]uint64, g),
	}
	if k.batch != nil {
		scorer := system.NewRowScorer(fs, adj, versions)
		rows := make([][]uint64, versions)
		scratch := make([][]uint64, versions)
		for v := range scratch {
			scratch[v] = make([]uint64, devsim.BatchScratchLen(k.width, fs.N()))
		}
		tw.tile = func(b int) {
			for v := range rows {
				rows[v] = k.batch.DevelopRows(r, b, scratch[v])
			}
			scorer.Score(rows, b, tw.vpfd, tw.spfd, tw.vAny, tw.sAny)
		}
		return tw
	}
	develop := func(col *devsim.Bitset) { k.proc.DevelopInto(r, col) }
	if k.sparse != nil {
		develop = func(col *devsim.Bitset) { tw.skips += int64(k.sparse.DevelopSparse(r, col)) }
	}
	cols := make([]*devsim.Bitset, versions)
	for v := range cols {
		cols[v] = devsim.NewBitset(fs.N())
	}
	tw.tile = func(int) {
		for _, col := range cols {
			develop(col)
		}
		vpfd, vcount := devsim.BitsetPFD(fs, cols[0])
		spfd, scount := system.BitsetSystemPFD(fs, adj, cols)
		tw.vpfd[0], tw.spfd[0] = vpfd, spfd
		tw.vAny[0], tw.sAny[0] = uint64(min(vcount, 1)), uint64(min(scount, 1))
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
		for k := range (b + 63) / 64 {
			tw.counts[0] -= bits.OnesCount64(tw.vAny[k])
			tw.counts[1] -= bits.OnesCount64(tw.sAny[k])
		}
		tw.counts[0] += b
		tw.counts[1] += b
	}
}
