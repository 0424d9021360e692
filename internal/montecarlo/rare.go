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
// between the sparse and dense kernels while remaining equal in
// distribution.
type RareOptions struct {
	// Progress, when non-nil, is called as replications complete with
	// (done, total): once with done 0 before the first replication, at
	// every context-check boundary, and once with done == total at the
	// end. Successive done values never decrease.
	Progress func(done, total int)
	// Metrics, when non-nil, receives the replication count and, for
	// sparse runs, the geometric skip-draw count.
	Metrics *telemetry.Registry
	// Sparse samples each replication's fault indicators by geometric
	// gap-skipping within groups of equal-probability faults instead of
	// one Bernoulli draw per fault, making the per-replication cost
	// O(hits + groups) rather than O(n). The estimator is unchanged in
	// distribution: hit counts per group are Binomial either way, and the
	// importance weight depends on the indicators only through those
	// counts.
	Sparse bool
	// Adjudicator, when non-nil, selects the voting rule whose defeating
	// faults the estimators count: each fault's system-level presence
	// probability becomes its binomial defeat probability
	// system.DefeatProbability(adj, m, p) instead of the 1-out-of-m
	// special case p^m. Nil means 1-out-of-m, bit for bit the historical
	// estimator (the defeat probability reduces to math.Pow(p, m)
	// exactly).
	Adjudicator system.Adjudicator
	// BatchWidth, when at least 2, tiles the dense estimators'
	// replication loops: each active fault's Bernoulli draws for a tile
	// of replications come from one randx FillUint64 batch compared
	// against a precomputed integer threshold (devsim.BernoulliThreshold),
	// amortizing RNG overhead exactly like the batched Monte-Carlo
	// kernel. The estimator is unchanged in distribution; like Sparse it
	// changes the variate sequence drawn for a given seed. It is ignored
	// when Sparse is set — the sparse kernel's geometric gaps are
	// inherently sequential per replication and already o(n).
	BatchWidth int
}

// defeatProb resolves a fault's system-level presence probability under
// the options' adjudicator: p^m bit for bit when unset.
func (o RareOptions) defeatProb(m int, p float64) float64 {
	adj := o.Adjudicator
	if adj == nil {
		adj = system.OneOutOfN{}
	}
	return system.DefeatProbability(adj, m, p)
}

func (o RareOptions) report(done, total int) {
	if o.Progress != nil {
		o.Progress(done, total)
	}
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

// EstimateRareSystemFault estimates P(N_m > 0) — the probability that an
// m-version system carries at least one defeating fault — by importance
// sampling.
//
// In the paper's Section-4 safety-grade regime this probability is
// deliberately tiny (1e-5 and below), so naive simulation wastes almost
// every replication: none of them exhibits the event. The estimator tilts
// each fault's system-level presence probability p_i^m up towards tiltTarget
// and reweights each replication by the likelihood ratio
//
//	w = Π_i (p_i^m/t_i)^{x_i} · ((1-p_i^m)/(1-t_i))^{1-x_i},
//
// which keeps the estimator unbiased while making the event common under
// the sampling measure. The closed form 1-Π(1-p_i^m) exists for THIS
// quantity (and the tests use it as ground truth); the estimator's value
// is as a verified harness for rare-event settings where closed forms do
// not survive model extensions.
//
// tiltTarget is the per-fault presence probability under the tilted
// measure, typically 0.2-0.5; faults whose natural probability already
// exceeds it keep their natural probability.
func EstimateRareSystemFault(fs *faultmodel.FaultSet, m, reps int, seed uint64, tiltTarget float64) (RareEventEstimate, error) {
	return EstimateRareSystemFaultContext(context.Background(), fs, m, reps, seed, tiltTarget)
}

// EstimateRareSystemFaultContext is EstimateRareSystemFault under a
// context; cancellation is checked every blockSize replications.
func EstimateRareSystemFaultContext(ctx context.Context, fs *faultmodel.FaultSet, m, reps int, seed uint64, tiltTarget float64) (RareEventEstimate, error) {
	return EstimateRareSystemFaultOpts(ctx, fs, m, reps, seed, tiltTarget, RareOptions{})
}

// EstimateRareSystemFaultOpts is EstimateRareSystemFaultContext with
// instrumentation: progress reports at context-check granularity and
// optional metrics.
func EstimateRareSystemFaultOpts(ctx context.Context, fs *faultmodel.FaultSet, m, reps int, seed uint64, tiltTarget float64, opts RareOptions) (RareEventEstimate, error) {
	if fs == nil {
		return RareEventEstimate{}, errors.New("montecarlo: fault set must not be nil")
	}
	if m < 1 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: version count %d must be at least 1", m)
	}
	if reps < 2 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: replication count %d must be at least 2", reps)
	}
	if math.IsNaN(tiltTarget) || tiltTarget <= 0 || tiltTarget >= 1 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: tilt target %v must be in (0, 1)", tiltTarget)
	}
	if opts.BatchWidth < 0 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: batch width %d must not be negative", opts.BatchWidth)
	}

	n := fs.N()
	natural := make([]float64, n) // the fault's system-level defeat probability (p_i^m for 1oom)
	tilted := make([]float64, n)
	logStay := make([]float64, n) // log((1-p)/(1-t)) per fault
	logHit := make([]float64, n)  // log(p/t) per fault
	for i := 0; i < n; i++ {
		p := opts.defeatProb(m, fs.Fault(i).P)
		natural[i] = p
		t := tiltTarget
		if p > t {
			t = p
		}
		if p == 0 {
			// Impossible faults stay impossible: no tilt, no weight.
			tilted[i] = 0
			continue
		}
		tilted[i] = t
		logHit[i] = math.Log(p) - math.Log(t)
		logStay[i] = math.Log1p(-p) - math.Log1p(-t)
	}

	// Sparse kernel precomputation: faults sharing a natural probability
	// also share their tilt and log terms, so a replication only needs
	// the Binomial hit count of each group — sampled by geometric
	// gap-skipping — on top of the all-miss baseline weight.
	var groups []tiltGroup
	baseLogW := 0.0
	if opts.Sparse {
		index := make(map[float64]int)
		for i := 0; i < n; i++ {
			if tilted[i] == 0 {
				continue
			}
			baseLogW += logStay[i]
			gi, ok := index[natural[i]]
			if !ok {
				gi = len(groups)
				index[natural[i]] = gi
				groups = append(groups, tiltGroup{
					sampler:  randx.NewGeometricSampler(tilted[i]),
					logDelta: logHit[i] - logStay[i],
				})
			}
			groups[gi].size++
		}
	}

	// The weights stream through a stats.Moments accumulator — the same
	// numerically stable one-pass type the streaming Monte-Carlo harness
	// uses — rather than raw sum/sum-of-squares registers, which lose
	// precision exactly in the rare-event regime where weights span many
	// orders of magnitude.
	r := randx.NewStream(seed)
	var mom stats.Moments
	hits := 0
	var skips int64
	if !opts.Sparse {
		var err error
		if hits, err = tiltedTiles(ctx, "rare-event estimation", r, &mom, reps, tilted, logHit, logStay, opts); err != nil {
			return RareEventEstimate{}, err
		}
	} else {
		for rep := 0; rep < reps; rep++ {
			if rep%blockSize == 0 {
				if err := ctx.Err(); err != nil {
					return RareEventEstimate{}, fmt.Errorf("montecarlo: rare-event estimation cancelled after %d of %d replications: %w", rep, reps, err)
				}
				opts.report(rep, reps)
			}
			logW := baseLogW
			event := false
			for gi := range groups {
				g := &groups[gi]
				for pos := g.sampler.Next(r); pos < g.size; pos += 1 + g.sampler.Next(r) {
					event = true
					logW += g.logDelta
					skips++
				}
				skips++
			}
			w := 0.0
			if event {
				hits++
				w = math.Exp(logW)
			}
			mom.Add(w)
		}
	}
	opts.report(reps, reps)
	if opts.Metrics != nil {
		opts.Metrics.Counter("montecarlo.replications_total").Add(int64(reps))
		if opts.Sparse {
			opts.Metrics.Counter("montecarlo.sparse_skips_total").Add(skips)
		}
	}
	return RareEventEstimate{
		Probability: mom.Mean(),
		StdErr:      math.Sqrt(mom.PopulationVariance() / float64(reps)),
		HitFraction: float64(hits) / float64(reps),
	}, nil
}

// tiltedTiles is the dense importance-sampling loop. Replications run in
// tiles of opts.BatchWidth (one replication when unset), and each active
// fault's draws for a tile come from one FillUint64 batch compared
// against its integer threshold, which decides exactly like the float
// compare in Stream.Bernoulli (devsim.BernoulliThreshold). Per
// replication it adds logHit on a hit and logStay on a miss in ascending
// fault order, so a one-replication tile draws and sums exactly like a
// per-replication Bernoulli scan. Like Bernoulli, faults with tilted
// probability 0 never hit and faults with tilted probability 1 always
// hit, neither consuming a draw; the latter add logHit = 0, which leaves
// the sum unchanged, so they only set the tile's starting event flag.
// The naive estimator runs the same loop with zero log-weights.
func tiltedTiles(ctx context.Context, what string, r *randx.Stream, mom *stats.Moments, reps int, tilted, logHit, logStay []float64, opts RareOptions) (hits int, err error) {
	width := max(1, min(opts.BatchWidth, reps))
	var thr []uint64
	var hitW, stayW []float64
	certain := false
	for i, t := range tilted {
		switch {
		case t == 0:
		case t >= 1:
			certain = true
		default:
			thr = append(thr, devsim.BernoulliThreshold(t))
			hitW = append(hitW, logHit[i])
			stayW = append(stayW, logStay[i])
		}
	}
	draws := make([]uint64, width)
	logW := make([]float64, width)
	event := make([]bool, width)
	nextCheck := 0
	for base := 0; base < reps; base += width {
		if base >= nextCheck {
			if err := ctx.Err(); err != nil {
				return hits, fmt.Errorf("montecarlo: %s cancelled after %d of %d replications: %w", what, base, reps, err)
			}
			opts.report(base, reps)
			nextCheck += blockSize
		}
		b := min(width, reps-base)
		d := draws[:b]
		for j := 0; j < b; j++ {
			logW[j] = 0
			event[j] = certain
		}
		for k, t := range thr {
			r.FillUint64(d)
			for j, u := range d {
				if u>>11 < t {
					event[j] = true
					logW[j] += hitW[k]
				} else {
					logW[j] += stayW[k]
				}
			}
		}
		for j := 0; j < b; j++ {
			w := 0.0
			if event[j] {
				hits++
				w = math.Exp(logW[j])
			}
			mom.Add(w)
		}
	}
	return hits, nil
}

// tiltGroup is a set of faults sharing one tilted presence probability
// and importance-weight increment, sampled as a unit by the sparse
// kernel.
type tiltGroup struct {
	sampler randx.GeometricSampler
	size    int
	// logDelta is logHit - logStay: the weight adjustment each hit in the
	// group applies on top of the all-miss baseline.
	logDelta float64
}

// EstimateNaiveSystemFault estimates the same probability by naive
// simulation of the fault indicators — the ablation baseline for
// EstimateRareSystemFault.
func EstimateNaiveSystemFault(fs *faultmodel.FaultSet, m, reps int, seed uint64) (RareEventEstimate, error) {
	return EstimateNaiveSystemFaultContext(context.Background(), fs, m, reps, seed)
}

// EstimateNaiveSystemFaultContext is EstimateNaiveSystemFault under a
// context; cancellation is checked every blockSize replications.
func EstimateNaiveSystemFaultContext(ctx context.Context, fs *faultmodel.FaultSet, m, reps int, seed uint64) (RareEventEstimate, error) {
	return EstimateNaiveSystemFaultOpts(ctx, fs, m, reps, seed, RareOptions{})
}

// EstimateNaiveSystemFaultOpts is EstimateNaiveSystemFaultContext with
// instrumentation: progress reports at context-check granularity and
// optional metrics.
func EstimateNaiveSystemFaultOpts(ctx context.Context, fs *faultmodel.FaultSet, m, reps int, seed uint64, opts RareOptions) (RareEventEstimate, error) {
	if fs == nil {
		return RareEventEstimate{}, errors.New("montecarlo: fault set must not be nil")
	}
	if m < 1 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: version count %d must be at least 1", m)
	}
	if reps < 2 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: replication count %d must be at least 2", reps)
	}
	if opts.BatchWidth < 0 {
		return RareEventEstimate{}, fmt.Errorf("montecarlo: batch width %d must not be negative", opts.BatchWidth)
	}
	n := fs.N()
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		probs[i] = opts.defeatProb(m, fs.Fault(i).P)
	}
	// Sparse kernel: the event "some fault hits" only needs, per group of
	// equal-probability faults, whether the first geometric gap lands
	// inside the group — this is exactly P(Binomial(size, p) > 0), so the
	// estimate's distribution matches the Bernoulli scan.
	var groups []tiltGroup
	if opts.Sparse {
		index := make(map[float64]int)
		for i := 0; i < n; i++ {
			if probs[i] == 0 {
				continue
			}
			gi, ok := index[probs[i]]
			if !ok {
				gi = len(groups)
				index[probs[i]] = gi
				groups = append(groups, tiltGroup{sampler: randx.NewGeometricSampler(probs[i])})
			}
			groups[gi].size++
		}
	}
	r := randx.NewStream(seed)
	hits := 0
	var skips int64
	if !opts.Sparse && opts.BatchWidth > 1 {
		// A tile cannot stop at its first hit, so only the event flags of
		// the shared loop matter here; zero log-weights keep it cheap.
		zeros := make([]float64, n)
		var unused stats.Moments
		var err error
		if hits, err = tiltedTiles(ctx, "naive estimation", r, &unused, reps, probs, zeros, zeros, opts); err != nil {
			return RareEventEstimate{}, err
		}
	} else {
		for rep := 0; rep < reps; rep++ {
			if rep%blockSize == 0 {
				if err := ctx.Err(); err != nil {
					return RareEventEstimate{}, fmt.Errorf("montecarlo: naive estimation cancelled after %d of %d replications: %w", rep, reps, err)
				}
				opts.report(rep, reps)
			}
			if opts.Sparse {
				for gi := range groups {
					skips++
					if groups[gi].sampler.Next(r) < groups[gi].size {
						hits++
						break
					}
				}
			} else {
				for i := 0; i < n; i++ {
					if r.Bernoulli(probs[i]) {
						hits++
						break
					}
				}
			}
		}
	}
	opts.report(reps, reps)
	if opts.Metrics != nil {
		opts.Metrics.Counter("montecarlo.replications_total").Add(int64(reps))
		if opts.Sparse {
			opts.Metrics.Counter("montecarlo.sparse_skips_total").Add(skips)
		}
	}
	p := float64(hits) / float64(reps)
	return RareEventEstimate{
		Probability: p,
		StdErr:      math.Sqrt(p * (1 - p) / float64(reps)),
		HitFraction: p,
	}, nil
}
