// Package montecarlo replicates the fault creation process many times to
// measure the distribution of version and system PFDs empirically.
//
// Every analytic claim of the paper that this repository reproduces is
// cross-checked against this harness: equations (1)–(2) against sample
// moments (E01), equation (10) against no-common-fault frequencies (E04),
// and the Section-5 normal approximation against empirical percentiles
// (E09). A run is cut into fixed-size blocks of replications, and each
// block draws from its own stream keyed by (seed, block index), so the
// sample is a function of the seed alone: worker goroutines claim blocks
// in any order, and any worker count reproduces the same bytes.
//
// The harness offers two aggregation modes. The default buffered mode
// keeps every replication's version and system PFD in memory
// (Result.VersionPFD/SystemPFD), supporting exact sample statistics at
// O(Reps) memory. Streaming mode (Config.Streaming) folds each
// replication into per-worker Agg accumulators — moments, a log-scale
// histogram for quantiles, and fault-free counters — so memory stays
// constant in Reps and the hot path performs no per-replication
// allocations. Both modes draw identical random variates and fold their
// moments block by block in block order, so they report identical means
// and standard deviations.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diversity/internal/devsim"
	"diversity/internal/stats"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// blockSize is the number of replications in one block: the unit whose
// random stream is keyed by its index, the unit workers claim, and the
// unit of context checks and progress reports. It is small enough that a
// 20,000-replication job splits evenly across two workers. Changing it
// changes every fixed-seed Monte-Carlo result.
const blockSize = 2048

// Config parameterises a Monte-Carlo run.
type Config struct {
	// Process develops the versions; it must be safe for concurrent use.
	Process devsim.Process
	// Versions is the number of versions per replication (the paper's
	// system has 2). Must be at least 1.
	Versions int
	// Adjudicator selects the voting rule combining the versions into a
	// system — any system.Adjudicator, including k-of-N rules. Nil means
	// 1-out-of-N (system.OneOutOfN).
	Adjudicator system.Adjudicator
	// Reps is the number of replications. Must be at least 1.
	Reps int
	// Workers is the number of worker goroutines. Zero means
	// runtime.GOMAXPROCS(0). It changes only how fast a run finishes:
	// results depend on the seed alone.
	Workers int
	// Seed makes the run reproducible.
	Seed uint64
	// Streaming selects constant-memory aggregation: instead of buffering
	// every replication's PFDs, the run folds them into mergeable
	// Agg accumulators (Result.VersionAgg/SystemAgg) and leaves
	// Result.VersionPFD/SystemPFD nil. The sampled population is
	// identical to the buffered mode for the same seed; only the
	// representation changes. Use Result.VersionSummary and
	// Result.SystemSummary to read statistics uniformly in either mode.
	Streaming bool
	// Sparse selects sparse tiles for the independent process
	// (devsim.IndependentProcess). Every run develops tiles of 64
	// replications as fault-major mask rows — one word of lane bits per
	// fault — which system.RowScorer scores word-wide under the voting
	// rule; the last tile of a block uses fewer lanes. A dense tile holds
	// every fault's row (devsim.Process's DevelopRows), so it costs O(n)
	// per tile and versions·n words per worker; a run over more than
	// 1<<24 of them is an error. A sparse tile holds only the rows of the
	// faults present in some lane: DevelopSparseRows skip-samples each
	// equal-p group's grid of (fault, lane) cells by geometric gaps and
	// RowScorer.ScoreSparse merges the versions' rows, so a tile costs
	// O(faults present) whatever the universe size. Every other process
	// has no cheaper sampler than its rows, so Sparse leaves its run on
	// dense tiles, bit for bit the dense run.
	//
	// The two tile forms draw different (but distributionally identical)
	// variate sequences, so fixed-seed results are reproducible within a
	// form yet not bitwise comparable across forms. Both compose with
	// both aggregation modes.
	Sparse bool
	// Deprecated: BatchWidth is ignored. Every run uses the 64-lane tiles
	// described under Sparse.
	BatchWidth int
	// Progress, when non-nil, is called as replications complete with the
	// total completed so far and the configured total. It is invoked from
	// worker goroutines once per block (never per sample); the calls are
	// serialised and done increases from call to call. Progress does not
	// affect the sampled distribution.
	Progress func(done, total int)
	// Metrics, when non-nil, receives run measurements: total
	// replications, replications per second, worker imbalance, and
	// — for cancelled runs — the latency between cancellation and the
	// last worker draining. Metric names are listed in DESIGN.md §7.
	// Metrics does not affect the sampled distribution.
	Metrics *telemetry.Registry
	// TraceSpan, when non-nil, is the parent span under which the run
	// records one timed child span per worker.
	TraceSpan *telemetry.Span
}

// Result collects the outcome of a run.
type Result struct {
	// Reps is the number of completed replications.
	Reps int
	// Versions is the number of versions each replication developed.
	Versions int
	// Adjudicator is the canonical name of the voting rule the run
	// adjudicated systems with ("1oon", "majority", "2oo3", ...).
	Adjudicator string
	// Streaming reports which aggregation mode produced the result:
	// buffered runs fill VersionPFD/SystemPFD, streaming runs fill
	// VersionAgg/SystemAgg, and a summarised result holds neither.
	Streaming bool
	// Sparse reports Config.Sparse. A process other than the
	// independent one ran on dense tiles all the same.
	Sparse bool
	// SparseSkips is the total number of geometric gaps sparse tiles
	// drew: one per present (fault, lane) cell plus one per skip-sampled
	// group per tile and version. It is 0 for every run on dense tiles.
	SparseSkips int64
	// VersionPFD holds the PFD of the first version of each replication.
	// It is nil for streaming runs.
	VersionPFD []float64
	// SystemPFD holds the system PFD of each replication. It is nil for
	// streaming runs.
	SystemPFD []float64
	// VersionAgg is the streaming aggregate of the first-version PFDs.
	// It is nil for buffered runs.
	VersionAgg *Agg
	// SystemAgg is the streaming aggregate of the system PFDs. It is nil
	// for buffered runs.
	SystemAgg *Agg
	// VersionSum and SystemSum are the held summaries of a result reduced
	// by Summarized, which leaves the samples and aggregates above nil.
	// They are nil for results straight from a run.
	VersionSum *stats.Summary `json:",omitempty"`
	SystemSum  *stats.Summary `json:",omitempty"`
	// VersionFaultFree counts replications whose first version had no
	// faults (N1 = 0).
	VersionFaultFree int
	// SystemFaultFree counts replications whose system had no defeating
	// fault (for the 1oo2 system: no common fault, N2 = 0).
	SystemFaultFree int
}

// VersionSummary returns descriptive statistics of the first-version PFD
// population in either aggregation mode: exact sample statistics for
// buffered runs, exact moments with histogram-resolution quantiles for
// streaming runs. Both modes fold the moments in block order, so they
// agree bit for bit on every moment. A summarised result returns its
// held summary, which is the same value.
func (res *Result) VersionSummary() (stats.Summary, error) {
	return summarize(res.VersionSum, res.VersionAgg, res.VersionPFD)
}

// SystemSummary returns descriptive statistics of the system PFD
// population, as VersionSummary does for the first version.
func (res *Result) SystemSummary() (stats.Summary, error) {
	return summarize(res.SystemSum, res.SystemAgg, res.SystemPFD)
}

// Summarized returns a copy of res that holds its two summaries in place
// of the samples and aggregates they are computed from, so the copy no
// longer pins O(Reps) memory. Every accessor of the copy returns what it
// returns on res; only the raw PFDs are gone. A result that is already
// summarised is returned as it is.
func (res *Result) Summarized() (*Result, error) {
	if res.VersionSum != nil && res.SystemSum != nil {
		return res, nil
	}
	v, s, err := res.summaries()
	if err != nil {
		return nil, err
	}
	out := *res
	out.VersionSum, out.SystemSum = &v, &s
	out.VersionPFD, out.SystemPFD, out.VersionAgg, out.SystemAgg = nil, nil, nil, nil
	return &out, nil
}

// summaries returns both populations' summaries. A raw buffered result
// folds the moments of both in one paired pass, with the bits of one
// pass each.
func (res *Result) summaries() (v, s stats.Summary, err error) {
	raw := res.VersionSum == nil && res.SystemSum == nil && res.VersionAgg == nil && res.SystemAgg == nil
	if raw && len(res.VersionPFD) == len(res.SystemPFD) {
		mv, ms := blockMomentPair(res.VersionPFD, res.SystemPFD)
		if v, err = bufferedSummary(res.VersionPFD, mv); err == nil {
			s, err = bufferedSummary(res.SystemPFD, ms)
		}
		return v, s, err
	}
	if v, err = res.VersionSummary(); err == nil {
		s, err = res.SystemSummary()
	}
	return v, s, err
}

// PVersionAnyFault returns the empirical estimate of P(N1 > 0).
func (res *Result) PVersionAnyFault() float64 {
	return 1 - float64(res.VersionFaultFree)/float64(res.Reps)
}

// PSystemAnyFault returns the empirical estimate of P(N_system > 0).
func (res *Result) PSystemAnyFault() float64 {
	return 1 - float64(res.SystemFaultFree)/float64(res.Reps)
}

// RiskRatio returns the empirical counterpart of the paper's equation (10)
// ratio, or an error if no version had any fault (the denominator risk is
// zero).
func (res *Result) RiskRatio() (float64, error) {
	denom := res.PVersionAnyFault()
	if denom == 0 {
		return 0, errors.New("montecarlo: risk ratio undefined: no replication produced a faulty version")
	}
	return res.PSystemAnyFault() / denom, nil
}

// Run executes the configured Monte-Carlo experiment. It is equivalent to
// RunContext with a background context.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the configured Monte-Carlo experiment under a
// context. Workers claim blocks of blockSize replications from a shared
// counter; block b draws from the stream keyed by (Seed, b), so the
// result does not depend on which worker ran which block. Cancellation is
// checked once per block, not per sample; a cancelled run returns an
// error wrapping ctx.Err() and discards any partial results.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Process == nil {
		return nil, errors.New("montecarlo: config requires a development process")
	}
	if cfg.Versions < 1 {
		return nil, fmt.Errorf("montecarlo: versions per replication %d must be at least 1", cfg.Versions)
	}
	if cfg.Reps < 1 {
		return nil, fmt.Errorf("montecarlo: replication count %d must be at least 1", cfg.Reps)
	}
	adj := cfg.Adjudicator
	if adj == nil {
		adj = system.OneOutOfN{}
	}
	if err := adj.Validate(cfg.Versions); err != nil {
		return nil, fmt.Errorf("montecarlo: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("montecarlo: run cancelled before start: %w", err)
	}

	fs := cfg.Process.FaultSet()
	// Only the independent process has a sparse sampler.
	independent, hasSparse := cfg.Process.(*devsim.IndependentProcess)
	var sparse *devsim.IndependentProcess
	if cfg.Sparse {
		sparse = independent
	}
	if words := cfg.Versions * fs.N(); sparse == nil && words > maxRowWords {
		remedy := "set Sparse"
		if !hasSparse {
			remedy = fmt.Sprintf("%T has no sparse sampler, so Sparse does not lift the bound", cfg.Process)
		}
		return nil, fmt.Errorf("montecarlo: %d versions of %d faults need %d row words per worker, over the row kernel's %d; %s",
			cfg.Versions, fs.N(), words, maxRowWords, remedy)
	}

	res := &Result{
		Reps: cfg.Reps, Versions: cfg.Versions, Adjudicator: adj.Name(),
		Streaming: cfg.Streaming, Sparse: cfg.Sparse,
	}
	if !cfg.Streaming {
		res.VersionPFD = make([]float64, cfg.Reps)
		res.SystemPFD = make([]float64, cfg.Reps)
	}

	workers := blockWorkers(cfg.Workers, cfg.Reps)
	fold := newMomentFold(2)
	tiles := make([]*tileWorker, workers)

	// The cancellation watcher timestamps the moment the context is
	// cancelled so the drain latency — cancellation to last worker exit —
	// can be measured after the workers have drained.
	runStart := time.Now()
	var cancelledAt atomic.Int64 // unix nanos; 0 = not cancelled
	watcherStop, watcherDone := make(chan struct{}), make(chan struct{})
	if cfg.Metrics != nil {
		go func() {
			defer close(watcherDone)
			select {
			case <-ctx.Done():
				cancelledAt.Store(time.Now().UnixNano())
			case <-watcherStop:
			}
		}()
	}
	workerElapsed := make([]time.Duration, workers)

	done := runBlocks(ctx, cfg.Reps, workers, cfg.Progress, func(w int) (func(b, lo, hi int), func()) {
		var span *telemetry.Span
		if cfg.TraceSpan != nil {
			span = cfg.TraceSpan.Child(fmt.Sprintf("shard-%02d", w))
		}
		workerStart := time.Now()
		tw := newTileWorker(cfg.Process, sparse, adj, cfg.Versions)
		if cfg.Streaming {
			tw.vAgg, tw.sAgg = new(Agg), new(Agg)
		} else {
			tw.versionPFD, tw.systemPFD = res.VersionPFD, res.SystemPFD
		}
		tiles[w] = tw
		run := func(b, lo, hi int) {
			tw.r.SeedAt(cfg.Seed, uint64(b))
			tw.run(lo, hi)
			if cfg.Streaming {
				fold.add(b, tw.vAgg.Moments, tw.sAgg.Moments)
				tw.vAgg.Moments, tw.sAgg.Moments = stats.Moments{}, stats.Moments{}
			}
		}
		stop := func() {
			workerElapsed[w] = time.Since(workerStart)
			if span != nil {
				span.End()
			}
		}
		return run, stop
	})
	for _, tw := range tiles {
		res.SparseSkips += tw.skips
		res.VersionFaultFree += tw.counts[0]
		res.SystemFaultFree += tw.counts[1]
	}
	if cfg.Metrics != nil {
		// A cancelled run waits for the watcher's timestamp: workers
		// can drain a block before the watcher is first scheduled.
		if ctx.Err() == nil {
			close(watcherStop)
		}
		<-watcherDone
		recordRunMetrics(cfg.Metrics, res, runStart, int64(done), workerElapsed, cancelledAt.Load())
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("montecarlo: run cancelled after %d of %d replications: %w", done, cfg.Reps, err)
	}
	if cfg.Streaming {
		// Counts, extremes and histograms merge exactly in any order;
		// the float moments come from the block-ordered fold, so the
		// aggregates do not depend on which worker ran which block.
		res.VersionAgg, res.SystemAgg = tiles[0].vAgg, tiles[0].sAgg
		for _, tw := range tiles[1:] {
			res.VersionAgg.Merge(tw.vAgg)
			res.SystemAgg.Merge(tw.sAgg)
		}
		res.VersionAgg.Moments, res.SystemAgg.Moments = fold.sum[0], fold.sum[1]
	}
	return res, nil
}

// blockWorkers resolves a requested worker count for a reps-replication
// run: zero or less means runtime.GOMAXPROCS(0), and no run starts more
// workers than it has blocks.
func blockWorkers(workers, reps int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, (reps+blockSize-1)/blockSize)
}

// runBlocks is the block scheduler of every replication loop in this
// package. It cuts reps replications into blocks of blockSize; block b
// covers replications [b·blockSize, min((b+1)·blockSize, reps)). Each of
// workers goroutines gets its block function and an optional exit hook
// from start(w), then claims blocks from a shared counter until none
// remain or ctx is cancelled, checking ctx before every claim. After each
// block, progress (when non-nil) receives the replications completed so
// far; its calls are serialised and done never decreases. runBlocks
// returns that count once every worker has exited.
func runBlocks(ctx context.Context, reps, workers int, progress func(done, total int), start func(w int) (run func(b, lo, hi int), stop func())) int {
	blocks := (reps + blockSize - 1) / blockSize
	var wg sync.WaitGroup
	var claimed atomic.Int64
	var mu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, stop := start(w)
			if stop != nil {
				defer stop()
			}
			for ctx.Err() == nil {
				b := int(claimed.Add(1) - 1)
				if b >= blocks {
					return
				}
				lo, hi := b*blockSize, min((b+1)*blockSize, reps)
				run(b, lo, hi)
				mu.Lock()
				done += hi - lo
				if progress != nil {
					progress(done, reps)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done
}

// momentFold merges per-block moments in block order. Workers finish
// blocks in any order; a block that finishes before its predecessors
// waits in pending, which holds about one block per worker, not one per
// block of the run, so memory stays independent of Reps.
type momentFold struct {
	mu      sync.Mutex
	next    int
	pending map[int][]stats.Moments
	sum     []stats.Moments // one running fold per accumulated quantity
}

// newMomentFold returns a fold over n quantities.
func newMomentFold(n int) *momentFold {
	return &momentFold{pending: make(map[int][]stats.Moments), sum: make([]stats.Moments, n)}
}

// add takes the moments of every quantity over block b, in the fold's
// quantity order, and folds every block that is now next in order.
func (f *momentFold) add(b int, ms ...stats.Moments) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending[b] = ms
	for ms, ok := f.pending[f.next]; ok; ms, ok = f.pending[f.next] {
		delete(f.pending, f.next)
		for i, m := range ms {
			f.sum[i].Merge(m)
		}
		f.next++
	}
}

// blockMoments folds xs exactly as a streaming run folds the same
// replications: one Moments per block, merged in block order.
func blockMoments(xs []float64) stats.Moments {
	var total stats.Moments
	for lo := 0; lo < len(xs); lo += blockSize {
		var m stats.Moments
		for _, x := range xs[lo:min(lo+blockSize, len(xs))] {
			m.Add(x)
		}
		total.Merge(m)
	}
	return total
}

// blockMomentPair folds two populations of one length as blockMoments
// folds each, in one pass: each block adds both populations' values in
// the same loop and merges into their folds in block order.
func blockMomentPair(xs, ys []float64) (mx, my stats.Moments) {
	for lo := 0; lo < len(xs); lo += blockSize {
		hi := min(lo+blockSize, len(xs))
		bx, by := stats.PairMoments(xs[lo:hi], ys[lo:hi])
		mx.Merge(bx)
		my.Merge(by)
	}
	return mx, my
}

// summarize returns a held summary or summarises a streaming aggregate
// or, when both are nil, a buffered population.
func summarize(held *stats.Summary, agg *Agg, xs []float64) (stats.Summary, error) {
	if held != nil {
		return *held, nil
	}
	if agg != nil {
		return agg.Summary()
	}
	return bufferedSummary(xs, blockMoments(xs))
}

// bufferedSummary summarises a buffered population: exact order
// statistics from the sample xs, moments from m, its block-ordered fold.
func bufferedSummary(xs []float64, m stats.Moments) (stats.Summary, error) {
	s, err := stats.OrderSummary(xs)
	if err != nil {
		return s, err
	}
	s.Mean, s.Skewness, s.Kurtosis = m.Mean(), m.Skewness(), m.Kurtosis()
	if sd, err := m.StdDev(); err == nil {
		s.StdDev = sd
	}
	return s, nil
}

// PreRegisterMetrics registers this package's run metrics that would
// otherwise only appear after the first run of their kind, so snapshots
// taken before any run report them as zeros (the telemetry layer's
// pre-registration convention, docs/METRICS.md).
func PreRegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("montecarlo.sparse_skips_total")
	reg.Gauge("montecarlo.replications_per_second.dense")
	reg.Gauge("montecarlo.replications_per_second.sparse")
	// Per-adjudicator replication counters for the built-in voting rules;
	// k-of-N rules appear under their own names after their first run.
	reg.Counter("montecarlo.replications_total." + system.OneOutOfN{}.Name())
	reg.Counter("montecarlo.replications_total." + system.MajorityVote{}.Name())
}

// recordRunMetrics publishes a run's throughput and shard measurements:
// replications completed — also counted under the run's adjudicator name
// (montecarlo.replications_total.<adjudicator>), so mixed workloads
// expose how much simulation each voting rule consumed — replications per
// second over the whole run (both unlabelled and under the kernel-mode
// suffix .dense/.sparse), worker imbalance ((max-min)/max worker wall
// time — 0 means perfectly balanced), sparse-kernel skip draws, whether
// the run streamed, and, for cancelled runs, the latency between
// cancellation and the last worker draining.
func recordRunMetrics(reg *telemetry.Registry, res *Result, runStart time.Time, completed int64, workerElapsed []time.Duration, cancelledNanos int64) {
	elapsed := time.Since(runStart)
	reg.Counter("montecarlo.replications_total").Add(completed)
	reg.Counter("montecarlo.replications_total." + res.Adjudicator).Add(completed)
	mode := "dense"
	if res.Sparse {
		mode = "sparse"
		reg.Counter("montecarlo.sparse_skips_total").Add(res.SparseSkips)
	}
	if res.Streaming {
		reg.Counter("montecarlo.streaming_runs_total").Add(1)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rate := float64(completed) / secs
		reg.Gauge("montecarlo.replications_per_second").Set(rate)
		reg.Gauge("montecarlo.replications_per_second." + mode).Set(rate)
	}
	reg.Histogram("montecarlo.run_duration_seconds", telemetry.DurationBuckets).Observe(elapsed.Seconds())
	if maxD := slices.Max(workerElapsed); len(workerElapsed) > 1 && maxD > 0 {
		reg.Gauge("montecarlo.shard_imbalance").Set(float64(maxD-slices.Min(workerElapsed)) / float64(maxD))
	}
	if cancelledNanos != 0 {
		latency := time.Since(time.Unix(0, cancelledNanos))
		reg.Histogram("montecarlo.cancellation_latency_seconds", telemetry.DurationBuckets).Observe(latency.Seconds())
	}
}
