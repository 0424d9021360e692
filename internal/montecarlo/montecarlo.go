// Package montecarlo replicates the fault creation process many times to
// measure the distribution of version and system PFDs empirically.
//
// Every analytic claim of the paper that this repository reproduces is
// cross-checked against this harness: equations (1)–(2) against sample
// moments (E01), equation (10) against no-common-fault frequencies (E04),
// and the Section-5 normal approximation against empirical percentiles
// (E09). Replications are sharded across worker goroutines with split
// random streams, so results are reproducible for a fixed seed and worker
// count does not change the sampled distribution.
//
// The harness offers two aggregation modes. The default buffered mode
// keeps every replication's version and system PFD in memory
// (Result.VersionPFD/SystemPFD), supporting exact sample statistics at
// O(Reps) memory. Streaming mode (Config.Streaming) folds each
// replication into per-worker Agg accumulators — mergeable moments, a
// log-scale histogram for quantiles, and fault-free counters — merged
// deterministically in shard order, so memory stays constant in Reps and
// the hot path performs no per-replication allocations. Both modes draw
// identical random variates, so for a fixed seed and worker count they
// observe exactly the same PFD population.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diversity/internal/devsim"
	"diversity/internal/randx"
	"diversity/internal/stats"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// ctxCheckEvery is the number of replications a worker completes between
// context checks and progress reports: coarse enough to keep the per-sample
// hot path branch-free, fine enough that cancelling a multi-million-rep run
// takes effect promptly.
const ctxCheckEvery = 8192

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
	// runtime.GOMAXPROCS(0).
	Workers int
	// Seed makes the run reproducible.
	Seed uint64
	// Streaming selects constant-memory aggregation: instead of buffering
	// every replication's PFDs, the run folds them into mergeable
	// Agg accumulators (Result.VersionAgg/SystemAgg) and leaves
	// Result.VersionPFD/SystemPFD nil. The sampled population is
	// identical to the buffered mode for the same seed and worker count;
	// only the representation changes. Use Result.VersionSummary and
	// Result.SystemSummary to read statistics uniformly in either mode.
	Streaming bool
	// Sparse selects the sparse development kernel: processes with the
	// devsim.SparseDeveloper extension (the independent process) sample
	// each replication's masks by geometric gap-skipping, so
	// per-replication cost scales with the expected fault count rather
	// than the universe size. That draws a different (but
	// distributionally identical) variate sequence from the dense
	// default, so fixed-seed results are reproducible within a mode yet
	// not bitwise comparable across modes; it therefore ships opt-in.
	// Every other process has no cheaper sampler than its dense
	// DevelopInto, which is then its sparse kernel. Sparse composes with
	// both aggregation modes, and for the same seed and worker count the
	// sparse buffered and sparse streaming runs observe exactly the same
	// PFD population. It takes precedence over BatchWidth: geometric gaps
	// are sequential per replication, so sparse runs develop one column
	// at a time.
	Sparse bool
	// BatchWidth, when at least 2, selects the batched replication kernel:
	// each worker tiles its replications into columns of up to BatchWidth
	// bitsets and develops a tile fault-major, drawing every fault's
	// Bernoulli variates for the whole tile from one randx FillUint64
	// batch and comparing them against precomputed integer thresholds
	// (devsim.BatchDeveloper). Draw and column buffers are arena-reused
	// per worker shard, so the steady state performs no allocations. Like
	// the sparse kernel, the batched path consumes a different (but
	// distributionally identical) variate sequence from the dense
	// default, so it ships opt-in: 0 or 1 leaves the dense kernel
	// untouched byte for byte. It composes with both aggregation modes
	// and is ignored when Sparse is set. Processes without the
	// BatchDeveloper extension fall back to the dense kernel. Wide tiles
	// over large fault universes are clamped to a fixed per-worker arena
	// budget; Result.BatchWidth reports the width actually used.
	BatchWidth int
	// Progress, when non-nil, is called as replications complete with the
	// total completed so far and the configured total. It is invoked from
	// worker goroutines at shard-chunk granularity (never per sample) and
	// must therefore be safe for concurrent use. Progress does not affect
	// the sampled distribution.
	Progress func(done, total int)
	// Metrics, when non-nil, receives run measurements: total
	// replications, replications per second, worker shard imbalance, and
	// — for cancelled runs — the latency between cancellation and the
	// last worker draining. Metric names are listed in DESIGN.md §7.
	// Metrics does not affect the sampled distribution.
	Metrics *telemetry.Registry
	// TraceSpan, when non-nil, is the parent span under which the run
	// records one timed child span per worker shard.
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
	// VersionAgg/SystemAgg.
	Streaming bool
	// Sparse reports whether the run used the sparse development kernel
	// (Config.Sparse); for processes without the SparseDeveloper
	// extension that kernel is their dense DevelopInto.
	Sparse bool
	// SparseSkips is the total number of geometric skip draws the sparse
	// kernel consumed (0 for dense runs and for processes whose sparse
	// kernel is DevelopInto).
	SparseSkips int64
	// Batched reports whether the batched replication kernel actually ran
	// — false when Config.BatchWidth was unset, Config.Sparse was set, or
	// the process lacks the BatchDeveloper extension.
	Batched bool
	// BatchWidth is the tile width the batched kernel used
	// (Config.BatchWidth clamped to the replication count and the
	// per-worker arena budget). It is 0 for unbatched runs.
	BatchWidth int
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
// streaming runs.
func (res *Result) VersionSummary() (stats.Summary, error) {
	if res.VersionAgg != nil {
		return res.VersionAgg.Summary()
	}
	return stats.Summarize(res.VersionPFD)
}

// SystemSummary returns descriptive statistics of the system PFD
// population in either aggregation mode: exact sample statistics for
// buffered runs, exact moments with histogram-resolution quantiles for
// streaming runs.
func (res *Result) SystemSummary() (stats.Summary, error) {
	if res.SystemAgg != nil {
		return res.SystemAgg.Summary()
	}
	return stats.Summarize(res.SystemPFD)
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
// context. Cancellation is checked once per worker shard chunk (every
// ctxCheckEvery replications), not per sample; a cancelled run returns an
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
	if cfg.BatchWidth < 0 {
		return nil, fmt.Errorf("montecarlo: batch width %d must not be negative", cfg.BatchWidth)
	}
	adj := cfg.Adjudicator
	if adj == nil {
		adj = system.OneOutOfN{}
	}
	if err := adj.Validate(cfg.Versions); err != nil {
		return nil, fmt.Errorf("montecarlo: %w", err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Reps {
		workers = cfg.Reps
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("montecarlo: run cancelled before start: %w", err)
	}

	fs := cfg.Process.FaultSet()
	k := kernel{proc: cfg.Process, width: 1}
	switch {
	case cfg.Sparse:
		k.sparse, _ = cfg.Process.(devsim.SparseDeveloper)
	case cfg.BatchWidth > 1:
		if bd, ok := cfg.Process.(devsim.BatchDeveloper); ok {
			k.batch = bd
			k.width = effectiveBatchWidth(min(cfg.BatchWidth, cfg.Reps), cfg.Versions, fs.N())
		}
	}

	res := &Result{
		Reps: cfg.Reps, Versions: cfg.Versions, Adjudicator: adj.Name(),
		Streaming: cfg.Streaming, Sparse: cfg.Sparse, Batched: k.batch != nil,
	}
	if res.Batched {
		res.BatchWidth = k.width
	}
	if !cfg.Streaming {
		res.VersionPFD = make([]float64, cfg.Reps)
		res.SystemPFD = make([]float64, cfg.Reps)
	}

	streams := randx.NewStream(cfg.Seed).Split(workers)
	type shard struct {
		lo, hi int
	}
	shards := make([]shard, workers)
	per := cfg.Reps / workers
	extra := cfg.Reps % workers
	start := 0
	for w := range shards {
		size := per
		if w < extra {
			size++
		}
		shards[w] = shard{lo: start, hi: start + size}
		start += size
	}

	var wg sync.WaitGroup
	var done atomic.Int64
	tiles := make([]*tileWorker, workers)

	// The cancellation watcher timestamps the moment the context is
	// cancelled so the drain latency — cancellation to last worker exit —
	// can be measured after wg.Wait.
	runStart := time.Now()
	var cancelledAt atomic.Int64 // unix nanos; 0 = not cancelled
	watcherStop := make(chan struct{})
	if cfg.Metrics != nil {
		go func() {
			select {
			case <-ctx.Done():
				cancelledAt.Store(time.Now().UnixNano())
			case <-watcherStop:
			}
		}()
	}
	shardElapsed := make([]time.Duration, workers)

	// A chunk is never smaller than a tile, so batched tiles only shrink
	// at the shard tail, not at every context check.
	chunk := max(ctxCheckEvery, k.width)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cfg.TraceSpan != nil {
				span := cfg.TraceSpan.Child(fmt.Sprintf("shard-%02d", w))
				defer span.End()
			}
			shardStart := time.Now()
			defer func() { shardElapsed[w] = time.Since(shardStart) }()
			tw := newTileWorker(fs, adj, streams[w], cfg.Versions, k)
			if cfg.Streaming {
				tw.vAgg, tw.sAgg = new(Agg), new(Agg)
			} else {
				tw.versionPFD, tw.systemPFD = res.VersionPFD, res.SystemPFD
			}
			tiles[w] = tw
			for lo := shards[w].lo; lo < shards[w].hi; lo += chunk {
				if ctx.Err() != nil {
					return
				}
				hi := min(lo+chunk, shards[w].hi)
				tw.run(lo, hi)
				completed := done.Add(int64(hi - lo))
				if cfg.Progress != nil {
					cfg.Progress(int(completed), cfg.Reps)
				}
			}
		}()
	}
	wg.Wait()
	for _, tw := range tiles {
		res.SparseSkips += tw.skips
	}
	if cfg.Metrics != nil {
		close(watcherStop)
		recordRunMetrics(cfg.Metrics, res, runStart, done.Load(), shardElapsed, cancelledAt.Load())
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("montecarlo: run cancelled after %d of %d replications: %w", done.Load(), cfg.Reps, err)
	}
	for _, tw := range tiles {
		res.VersionFaultFree += tw.counts[0]
		res.SystemFaultFree += tw.counts[1]
	}
	if cfg.Streaming {
		// Reduce the per-worker aggregates in shard order: the merge is
		// deterministic, so a fixed seed and worker count reproduces
		// results bit for bit.
		res.VersionAgg, res.SystemAgg = tiles[0].vAgg, tiles[0].sAgg
		for _, tw := range tiles[1:] {
			res.VersionAgg.Merge(tw.vAgg)
			res.SystemAgg.Merge(tw.sAgg)
		}
	}
	return res, nil
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
	reg.Gauge("montecarlo.replications_per_second.batched")
	reg.Gauge("montecarlo.batch_width")
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
// suffix .dense/.sparse/.batched), the run's tile width (0 unless
// batched), shard imbalance ((max-min)/max shard wall time — 0 means
// perfectly balanced), sparse-kernel skip draws, whether the run
// streamed, and, for cancelled runs, the latency between cancellation and
// the last worker draining.
func recordRunMetrics(reg *telemetry.Registry, res *Result, runStart time.Time, completed int64, shardElapsed []time.Duration, cancelledNanos int64) {
	elapsed := time.Since(runStart)
	reg.Counter("montecarlo.replications_total").Add(completed)
	reg.Counter("montecarlo.replications_total." + res.Adjudicator).Add(completed)
	mode := "dense"
	switch {
	case res.Sparse:
		mode = "sparse"
		reg.Counter("montecarlo.sparse_skips_total").Add(res.SparseSkips)
	case res.Batched:
		mode = "batched"
	}
	reg.Gauge("montecarlo.batch_width").Set(float64(res.BatchWidth))
	if res.Streaming {
		reg.Counter("montecarlo.streaming_runs_total").Add(1)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rate := float64(completed) / secs
		reg.Gauge("montecarlo.replications_per_second").Set(rate)
		reg.Gauge("montecarlo.replications_per_second." + mode).Set(rate)
	}
	reg.Histogram("montecarlo.run_duration_seconds", telemetry.DurationBuckets).Observe(elapsed.Seconds())
	if len(shardElapsed) > 1 {
		minD, maxD := shardElapsed[0], shardElapsed[0]
		for _, d := range shardElapsed[1:] {
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
		if maxD > 0 {
			reg.Gauge("montecarlo.shard_imbalance").Set(float64(maxD-minD) / float64(maxD))
		}
	}
	if cancelledNanos != 0 {
		latency := time.Since(time.Unix(0, cancelledNanos))
		reg.Histogram("montecarlo.cancellation_latency_seconds", telemetry.DurationBuckets).Observe(latency.Seconds())
	}
}
