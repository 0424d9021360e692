package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/stats"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// RareOptions carries optional instrumentation and kernel selection for
// the rare-event estimators. The zero value disables all of it. No field
// changes the distribution of the estimate; Sparse does change the
// variate sequence drawn for a given seed, so fixed-seed values differ
// between kernels while remaining equal in distribution.
//
// Like a Monte-Carlo run, an estimation is cut into blocks of blockSize
// replications, block b draws from the stream keyed by (seed, b), and the
// weights fold block by block in block order, so a fixed-seed estimate is
// the same at every worker count. The exported estimators use
// runtime.GOMAXPROCS(0) workers.
type RareOptions struct {
	// Progress, when non-nil, is called with (done, total): once with
	// done 0 before the first block, then once per block from worker
	// goroutines, as Config.Progress is. Calls are serialised and done
	// never decreases; the last call has done == total.
	Progress func(done, total int)
	// Metrics, when non-nil, receives the replication count and, for
	// sparse runs, the geometric skip-draw count.
	Metrics *telemetry.Registry
	// Sparse samples a tile of 64 replications' fault indicators by
	// geometric gap-skipping over each group of equal-probability faults
	// and the tile's lanes, instead of one Hits mask per fault, making the
	// cost O(hits + groups) per tile rather than O(n). The estimator is
	// unchanged in distribution: hit counts per group and lane are
	// Binomial either way, and the importance weight depends on the
	// indicators only through those counts.
	Sparse bool
	// Adjudicator, when non-nil, selects the voting rule whose defeating
	// faults the estimators count: each fault's system-level presence
	// probability becomes its binomial defeat probability
	// system.DefeatProbability(adj, m, p) instead of the 1-out-of-m
	// special case p^m. Nil means 1-out-of-m (the defeat probability
	// reduces to math.Pow(p, m) exactly).
	Adjudicator system.Adjudicator
}

// RareEventEstimate is the result of an importance-sampled estimation of a
// rare event probability.
type RareEventEstimate struct {
	// Probability is the estimate.
	Probability float64
	// StdErr is its standard error.
	StdErr float64
	// HitFraction is the fraction of replications in which the event
	// occurred under the tilted measure — near 0.5 means the tilt is
	// doing its job.
	HitFraction float64
}

// EstimateRareSystemFaultOpts estimates P(N_m > 0) — the probability that
// an m-version system carries at least one defeating fault — by
// importance sampling.
//
// In the paper's Section-4 safety-grade regime this probability is
// deliberately tiny (1e-5 and below), so naive simulation wastes almost
// every replication: none of them exhibits the event. The estimator tilts
// each fault's system-level presence probability p_i up towards
// tiltTarget and reweights each replication by the likelihood ratio
//
//	w = Π_i (p_i/t_i)^{x_i} · ((1-p_i)/(1-t_i))^{1-x_i},
//
// which keeps the estimator unbiased while making the event common under
// the sampling measure. The closed form 1-Π(1-p_i) exists for THIS
// quantity (and the tests use it as ground truth); the estimator's value
// is as a verified harness for rare-event settings where closed forms do
// not survive model extensions.
//
// tiltTarget is the per-fault presence probability under the tilted
// measure, typically 0.2-0.5; faults whose natural probability already
// exceeds it keep their natural probability. A cancelled estimation
// returns an error wrapping ctx.Err().
func EstimateRareSystemFaultOpts(ctx context.Context, fs *faultmodel.FaultSet, m, reps int, seed uint64, tiltTarget float64, opts RareOptions) (RareEventEstimate, error) {
	if math.IsNaN(tiltTarget) || tiltTarget <= 0 || tiltTarget >= 1 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: tilt target %v must be in (0, 1)", tiltTarget)
	}
	return estimateTilted(ctx, fs, m, reps, seed, tiltTarget, opts, 0)
}

// EstimateNaiveSystemFaultOpts estimates the same probability by naive
// simulation of the fault indicators — the ablation baseline for
// EstimateRareSystemFaultOpts. Naive simulation is importance sampling at
// the identity tilt: every weight is 1, so the estimate is the hit
// fraction and its variance the binomial p(1-p)/n.
func EstimateNaiveSystemFaultOpts(ctx context.Context, fs *faultmodel.FaultSet, m, reps int, seed uint64, opts RareOptions) (RareEventEstimate, error) {
	return estimateTilted(ctx, fs, m, reps, seed, 0, opts, 0)
}

// estimateTilted is the one rare-event estimator: importance sampling
// with each fault's tilted probability max(p_i, tiltTarget), so a zero
// tiltTarget is the identity tilt. It runs on workers goroutines (zero
// means runtime.GOMAXPROCS(0)) under runBlocks; the result does not
// depend on the worker count.
func estimateTilted(ctx context.Context, fs *faultmodel.FaultSet, m, reps int, seed uint64, tiltTarget float64, opts RareOptions, workers int) (RareEventEstimate, error) {
	if fs == nil {
		return RareEventEstimate{}, errors.New("montecarlo: fault set must not be nil")
	}
	if m < 1 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: version count %d must be at least 1", m)
	}
	if reps < 2 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: replication count %d must be at least 2", reps)
	}
	k := newTiltKernel(fs, m, tiltTarget, opts, maxTiltGroup)

	// The weights stream through stats.Moments — the numerically stable
	// one-pass type the streaming Monte-Carlo harness uses — rather than
	// raw sum/sum-of-squares registers, which lose precision exactly in
	// the rare-event regime where weights span many orders of magnitude.
	workers = blockWorkers(workers, reps)
	fold := newMomentFold(1)
	tws := make([]*tiltWorker, workers)
	if opts.Progress != nil {
		opts.Progress(0, reps)
	}
	done := runBlocks(ctx, reps, workers, opts.Progress, func(w int) (func(b, lo, hi int), func()) {
		tw := &tiltWorker{k: k, r: randx.NewStream(0)}
		tws[w] = tw
		return func(b, lo, hi int) {
			tw.r.SeedAt(seed, uint64(b))
			if opts.Sparse {
				tw.sparse(hi - lo)
			} else {
				tw.dense(hi - lo)
			}
			fold.add(b, tw.mom)
			tw.mom = stats.Moments{}
		}, nil
	})
	if err := ctx.Err(); err != nil {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: rare-event estimation cancelled after %d of %d replications: %w", done, reps, err)
	}
	hits, skips := 0, int64(0)
	for _, tw := range tws {
		hits += tw.hits
		skips += tw.skips
	}
	if opts.Metrics != nil {
		opts.Metrics.Counter("montecarlo.replications_total").Add(int64(reps))
		if opts.Sparse {
			opts.Metrics.Counter("montecarlo.sparse_skips_total").Add(skips)
		}
	}
	mom := fold.sum[0]
	return RareEventEstimate{
		Probability: mom.Mean(),
		StdErr:      math.Sqrt(mom.PopulationVariance() / float64(reps)),
		HitFraction: float64(hits) / float64(reps),
	}, nil
}

// tiltKernel is an estimation's read-only precomputation, shared by every
// worker. Faults split three ways once, for both kernels: impossible
// faults (p = 0) stay impossible and take no part; certain faults (p = 1,
// hence t = 1) defeat every system without a draw and contribute the
// likelihood ratio p/t = 1, so they only set the event flag; every other
// fault is active, with log(p/t) added on a hit and log((1-p)/(1-t)) on a
// miss.
type tiltKernel struct {
	certain bool
	// Dense kernel: the active faults in fault order.
	active []activeFault
	// Sparse kernel: active faults sharing a natural probability also
	// share their tilt and log terms, so a replication only needs each
	// group's hit count on top of the all-miss baseline weight.
	groups   []tiltGroup
	baseLogW float64
}

// activeFault is one active fault of the dense kernel: its tilted
// probability as a devsim.BernoulliThreshold and its log-weight terms.
type activeFault struct {
	thr             uint64
	logHit, logStay float64
}

// tiltGroup is a set of active faults sharing one tilted presence
// probability and importance-weight increment, sampled as a unit by the
// sparse kernel.
type tiltGroup struct {
	sampler randx.GeometricSampler
	size    int
	// logDelta is logHit - logStay: the weight adjustment each hit in the
	// group applies on top of the all-miss baseline.
	logDelta float64
}

// maxTiltGroup caps a tilt group so its grid of size × tileWidth cells
// stays within randx.MaxGap, the largest bound a skip loop may have; a
// larger set splits into several groups, whose draws have the same law.
// Only a 32-bit platform reaches the cap, at 2^24 - 1 faults.
const maxTiltGroup = randx.MaxGap / tileWidth

// newTiltKernel tilts fs's faults for an m-version system under the
// options' voting rule and builds the kernel's view of them, with no
// sparse group larger than maxGroup.
func newTiltKernel(fs *faultmodel.FaultSet, m int, tiltTarget float64, opts RareOptions, maxGroup int) *tiltKernel {
	adj := opts.Adjudicator
	if adj == nil {
		adj = system.OneOutOfN{}
	}
	k := &tiltKernel{}
	index := make(map[float64]int)
	for i := 0; i < fs.N(); i++ {
		p := system.DefeatProbability(adj, m, fs.Fault(i).P)
		switch {
		case p == 0:
		case p >= 1:
			k.certain = true
		default:
			t := max(p, tiltTarget)
			logHit := math.Log(p) - math.Log(t)
			logStay := math.Log1p(-p) - math.Log1p(-t)
			if !opts.Sparse {
				k.active = append(k.active, activeFault{devsim.BernoulliThreshold(t), logHit, logStay})
				continue
			}
			k.baseLogW += logStay
			gi, ok := index[p]
			if !ok || k.groups[gi].size == maxGroup {
				gi = len(k.groups)
				index[p] = gi
				k.groups = append(k.groups, tiltGroup{sampler: randx.NewGeometricSampler(t), logDelta: logHit - logStay})
			}
			k.groups[gi].size++
		}
	}
	return k
}

// tiltWorker is one worker's replication loop state: the current block's
// stream and weights, hit and skip counts over all its blocks, and the
// dense kernel's tile scratch.
type tiltWorker struct {
	k     *tiltKernel
	r     *randx.Stream
	mom   stats.Moments // the current block's weights
	hits  int
	skips int64
	logW  [64]float64
}

// dense runs n replications in tiles of 64 (the last tile of a block
// fewer). Each active fault's presence in a tile's lanes is one
// randx.Stream.Hits mask at its tilted threshold; per replication the
// log-weight sums logHit or logStay in fault order.
func (tw *tiltWorker) dense(n int) {
	k, r := tw.k, tw.r
	tw.tiles(n, func(logW []float64) (event uint64) {
		clear(logW)
		for _, f := range k.active {
			m := r.Hits(f.thr, len(logW))
			event |= m
			// Indexing by the hit bit adds exactly logHit or logStay
			// without a branch on the random outcome.
			terms := [2]float64{f.logStay, f.logHit}
			for j := range logW {
				logW[j] += terms[m>>uint(j)&1]
			}
		}
		return event
	})
}

// sparse runs n replications in tiles of 64, as dense does, sampling
// each group's hits by skip-sampling its size×width grid of (fault, lane)
// cells in fault-major order, the grid devsim's DevelopSparseRows skips:
// cell c falls in lane c mod width, and each hit adds the group's
// logDelta to its lane's all-miss baseline, in group order.
func (tw *tiltWorker) sparse(n int) {
	k, r := tw.k, tw.r
	tw.tiles(n, func(logW []float64) (event uint64) {
		width := len(logW)
		for j := range logW {
			logW[j] = k.baseLogW
		}
		for gi := range k.groups {
			g := &k.groups[gi]
			cells := g.size * width
			for c := g.sampler.Next(r); c < cells; c += 1 + g.sampler.Next(r) {
				lane := c % width
				event |= 1 << uint(lane)
				logW[lane] += g.logDelta
				tw.skips++
			}
			tw.skips++ // the final gap that overshot the grid
		}
		return event
	})
}

// tiles runs n replications in tiles of up to 64 lanes: tile fills the
// lanes' log-weights and returns the lanes in which the event occurred
// (a certain fault adds every lane), and each lane is observed in order.
func (tw *tiltWorker) tiles(n int, tile func(logW []float64) (event uint64)) {
	for base := 0; base < n; base += tileWidth {
		logW := tw.logW[:min(tileWidth, n-base)]
		event := tile(logW)
		if tw.k.certain {
			event = ^uint64(0)
		}
		for j, lw := range logW {
			tw.observe(event>>uint(j)&1 == 1, lw)
		}
	}
}

// observe folds one replication's importance weight: exp(logW) when the
// event occurred, 0 otherwise.
func (tw *tiltWorker) observe(event bool, logW float64) {
	w := 0.0
	if event {
		tw.hits++
		w = expPortable(logW)
	}
	tw.mom.Add(w)
}
