package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

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
	// Sparse develops each tile of 64 replications' tilted fault
	// indicators with devsim.IndependentProcess.DevelopSparseRows —
	// geometric gap-skipping over each group of equal tilted probability
	// — instead of DevelopRows' one mask per active fault, making the
	// cost O(hits + groups) per tile rather than O(n). The estimator is
	// unchanged in distribution: every lane's indicators have the same
	// law either way, and both forms fold the weights alike.
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
	k, err := newTiltKernel(fs, m, tiltTarget, opts.Adjudicator)
	if err != nil {
		return RareEventEstimate{}, err
	}

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
		if k.proc != nil && !opts.Sparse {
			tw.rows = make([]uint64, devsim.BatchScratchLen(tileWidth, k.proc.FaultSet().N()))
		}
		tws[w] = tw
		return func(b, lo, hi int) {
			tw.r.SeedAt(seed, uint64(b))
			tw.run(hi-lo, opts.Sparse)
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
// worker. Faults split three ways once: impossible faults (p = 0) stay
// impossible and take no part; certain faults (p = 1, hence t = 1) defeat
// every system without a draw and contribute the likelihood ratio p/t = 1,
// so they only set the event flag; every other fault is active. The
// active faults are developed, at their tilted probabilities, by one
// devsim.IndependentProcess, so the estimator draws through the sampler
// every Monte-Carlo run uses. A lane's log-weight is the all-miss
// baseline Σ log((1-p)/(1-t)) plus, for each active fault present in it,
// the increment log(p/t) - log((1-p)/(1-t)).
type tiltKernel struct {
	certain bool
	// proc develops the active faults in fault order at their tilted
	// probabilities; it is nil when no fault is active.
	proc *devsim.IndependentProcess
	// logDelta is each active fault's weight increment on a hit.
	logDelta []float64
	baseLogW float64
}

// newTiltKernel tilts fs's faults for an m-version system under the voting
// rule adj (nil means 1-out-of-m) to t = max(p, tiltTarget), where p is a
// fault's defeat probability. A run of faults of equal presence
// probability shares its defeat probability, tilt and log terms, which
// are computed once per run.
func newTiltKernel(fs *faultmodel.FaultSet, m int, tiltTarget float64, adj system.Adjudicator) (*tiltKernel, error) {
	if adj == nil {
		adj = system.OneOutOfN{}
	}
	k := &tiltKernel{logDelta: make([]float64, 0, fs.N())}
	tilted := make([]faultmodel.Fault, 0, fs.N())
	runP, p, t, logDelta, logStay := math.NaN(), 0.0, 0.0, 0.0, 0.0
	for i := 0; i < fs.N(); i++ {
		if fp := fs.Fault(i).P; fp != runP {
			runP = fp
			p = system.DefeatProbability(adj, m, fp)
			if p > 0 && p < 1 {
				t = max(p, tiltTarget)
				logStay = math.Log1p(-p) - math.Log1p(-t)
				logDelta = math.Log(p) - math.Log(t) - logStay
			}
		}
		switch {
		case p == 0:
		case p >= 1:
			k.certain = true
		default:
			tilted = append(tilted, faultmodel.Fault{P: t})
			k.logDelta = append(k.logDelta, logDelta)
			k.baseLogW += logStay
		}
	}
	if len(tilted) > 0 {
		tfs, err := faultmodel.New(tilted)
		if err != nil {
			return nil, err
		}
		k.proc = devsim.NewIndependentProcess(tfs)
	}
	return k, nil
}

// tiltWorker is one worker's replication loop state: the current block's
// stream and weights, hit and skip counts over all its blocks, and one
// tile's rows and log-weights.
type tiltWorker struct {
	k          *tiltKernel
	r          *randx.Stream
	mom        stats.Moments // the current block's weights
	hits       int
	skips      int64
	rows       []uint64 // dense tiles' scratch
	sparseRows []devsim.SparseRow
	logW       [tileWidth]float64
}

// run runs n replications in tiles of 64 (the last tile of a block
// fewer). Each tile's active-fault rows come from the kernel's process —
// DevelopSparseRows when sparse, DevelopRows otherwise — and both forms
// fold into the lanes' log-weights the same way, in ascending fault
// order. Each lane is then observed in order; a certain fault makes
// every lane an event.
func (tw *tiltWorker) run(n int, sparse bool) {
	k := tw.k
	for base := 0; base < n; base += tileWidth {
		width := min(tileWidth, n-base)
		logW := tw.logW[:width]
		for j := range logW {
			logW[j] = k.baseLogW
		}
		var event uint64
		switch {
		case k.proc == nil:
		case sparse:
			var skips int
			tw.sparseRows, skips = k.proc.DevelopSparseRows(tw.r, width, tw.sparseRows)
			tw.skips += int64(skips)
			for _, row := range tw.sparseRows {
				event |= tw.foldRow(int(row.Fault), row.Lanes)
			}
		default:
			for i, lanes := range k.proc.DevelopRows(tw.r, width, tw.rows) {
				if lanes != 0 {
					event |= tw.foldRow(i, lanes)
				}
			}
		}
		if k.certain {
			event = ^uint64(0)
		}
		for j, lw := range logW {
			tw.observe(event>>uint(j)&1 == 1, lw)
		}
	}
}

// foldRow adds active fault i's weight increment to the log-weight of
// each lane it is present in, and returns those lanes.
func (tw *tiltWorker) foldRow(i int, lanes uint64) uint64 {
	d := tw.k.logDelta[i]
	for m := lanes; m != 0; m &= m - 1 {
		tw.logW[bits.TrailingZeros64(m)] += d
	}
	return lanes
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
