package engine

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"diversity/internal/devsim"
	"diversity/internal/experiments"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// Progress is one progress report from a running job.
type Progress struct {
	// Stage identifies the phase: "replications" while Monte-Carlo
	// replications complete, an experiment ID while the suite runs, or an
	// estimator name during rare-event jobs.
	Stage string
	// Done and Total count units within the stage: replications for
	// simulation stages, experiments for suite runs.
	Done, Total int
}

// Options configure an Engine.
type Options struct {
	// CacheSize caps the number of cached results; values <= 0 select the
	// default of 128.
	CacheSize int
	// DisableCache turns off both the result cache and the model cache.
	DisableCache bool
	// Progress, when non-nil, receives progress reports. The engine
	// serialises calls, so the callback needs no locking of its own.
	Progress func(Progress)
	// Telemetry, when non-nil, receives the engine's metrics — job
	// durations by kind, cache hit/miss/eviction counts, queue-to-start
	// latency, and the Monte-Carlo and experiment measurements of the
	// packages the engine drives — plus one trace of nested timed spans
	// (job → stage → worker) per executed run. Metric names and
	// the span hierarchy are documented in DESIGN.md §7.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, receives structured run-ID-stamped
	// start/finish/error lines for every job.
	Logger *slog.Logger
}

// Engine executes jobs, caching results by job hash and models by spec.
type Engine struct {
	cache      *lruCache[*Result] // nil when caching is disabled
	models     *lruCache[*model]  // nil when caching is disabled
	progressMu sync.Mutex
	progress   func(Progress)
	tele       *telemetry.Registry // nil when telemetry is disabled
	logger     *slog.Logger        // nil when logging is disabled
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	e := &Engine{progress: opts.Progress, tele: opts.Telemetry, logger: opts.Logger}
	if !opts.DisableCache {
		size := opts.CacheSize
		if size <= 0 {
			size = 128
		}
		e.cache = newLRUCache[*Result](size)
		e.models = newLRUCache[*model](modelCacheSize)
		if e.tele != nil {
			// Pre-register the cache counters so every snapshot carries
			// hit, miss and eviction counts — zeros included.
			e.tele.Counter("engine.cache.hits")
			e.tele.Counter("engine.cache.misses")
			e.tele.Counter("engine.cache.evictions")
			e.tele.Counter("engine.model_cache.hits")
			e.tele.Counter("engine.model_cache.misses")
		}
	}
	// Pre-register the simulation kernel's metrics too: dashboards see
	// sparse_skips_total and the per-mode throughput gauges at zero before
	// the first run rather than having series appear mid-flight.
	montecarlo.PreRegisterMetrics(opts.Telemetry)
	return e
}

var (
	defaultMu     sync.Mutex
	defaultEngine *Engine
)

// Default returns the shared process-wide engine. Unless reconfigured
// with SetDefaultOptions it has the default cache size and no progress,
// telemetry or logging hooks. The facade's Run-style helpers route
// through it.
func Default() *Engine {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEngine == nil {
		defaultEngine = New(Options{})
	}
	return defaultEngine
}

// SetDefaultOptions replaces the shared engine returned by Default with
// one built from opts, so facade users can attach telemetry, logging and
// progress hooks without constructing their own engine. The previous
// default engine's result cache is discarded; jobs already running keep
// the engine they started on.
func SetDefaultOptions(opts Options) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultEngine = New(opts)
}

// Run executes a job through the default engine.
func Run(ctx context.Context, job Job) (*Result, error) {
	return Default().Run(ctx, job)
}

// emit forwards a progress report to the configured hook, serialising
// concurrent reporters (Monte-Carlo workers report once per block).
func (e *Engine) emit(p Progress) {
	if e.progress == nil {
		return
	}
	e.progressMu.Lock()
	defer e.progressMu.Unlock()
	e.progress(p)
}

// fanout builds the progress sink for one run: reports reach both the
// engine-wide hook and the per-run hook, each behind its own lock so a
// slow subscriber on one side cannot corrupt the other.
func (e *Engine) fanout(perRun func(Progress)) func(Progress) {
	if perRun == nil {
		return e.emit
	}
	var mu sync.Mutex
	return func(p Progress) {
		e.emit(p)
		mu.Lock()
		perRun(p)
		mu.Unlock()
	}
}

// Result is the outcome of a job: a kind-discriminated envelope plus the
// resolved model. Results served from the cache are shared — treat every
// field as immutable.
type Result struct {
	// Kind echoes the job kind; Hash is the canonical job hash.
	Kind JobKind
	Hash string
	// ID is the stable job identifier derived from Hash (see IDFromHash).
	// Identical specs produce identical IDs, so a cache hit is observable
	// end-to-end: the CLIs print it under -progress and the HTTP API
	// returns it with every result.
	ID string
	// FromCache reports that the result was served from the cache without
	// recomputation.
	FromCache bool
	// RunID identifies this execution (or cache service) for correlation
	// with log lines, trace snapshots and flight-recorder events. Unlike
	// ID it is unique per call: a caller-supplied request ID (via
	// telemetry.ContextWithRunID) is echoed here, and results served from
	// the cache carry the requesting run's ID, not the computing run's.
	RunID string
	// ModelName and FaultSet describe the resolved model (nil for
	// experiment-suite jobs, which sweep their own scenario populations).
	// The model cache shares FaultSet across jobs and results over the
	// same model.
	ModelName string
	FaultSet  *faultmodel.FaultSet
	// Exactly one of the following is set, matching Kind.
	MonteCarlo  *montecarlo.Result
	RareEvent   *RareEventResult
	Experiments []*experiments.Result
	Analytic    *AnalyticResult
}

// RareEventResult pairs the importance-sampled estimate with the naive
// baseline and the closed form it cross-checks.
type RareEventResult struct {
	ImportanceSampling montecarlo.RareEventEstimate
	Naive              montecarlo.RareEventEstimate
	// ClosedForm is the exact P(N_m > 0) = 1 - Π(1 - p_i^m).
	ClosedForm float64
}

// ConfidenceBound is one row of the analytic report's confidence table.
type ConfidenceBound struct {
	// Versions is the system size m the bound is for.
	Versions int
	// Bound is the normal-approximation bound at the requested level.
	Bound float64
	// ExactQuantile is the same level's quantile of the exact PFD
	// distribution; HasExact reports whether the fault universe was small
	// enough to enumerate it.
	ExactQuantile float64
	HasExact      bool
}

// AnalyticResult carries the assessor-facing quantities of an analytic
// job: everything the diversity CLI tabulates.
type AnalyticResult struct {
	// Gain holds the µ/σ moments and the formula (11)/(12) bounds at the
	// requested k.
	Gain faultmodel.GainReport
	// SigmaBoundFactor is sqrt(pmax(1+pmax)), equation (9).
	SigmaBoundFactor float64
	// RiskRatio is the equation-(10) ratio; HasRiskRatio is false when it
	// is undefined (no fault can occur).
	RiskRatio    float64
	HasRiskRatio bool
	// SuccessRatio is the footnote-5 ratio P(N2=0)/P(N1=0).
	SuccessRatio float64
	// Confidence echoes the requested level; Bounds holds the one- and
	// two-version rows.
	Confidence float64
	Bounds     []ConfidenceBound
}

// count increments the named telemetry counter when telemetry is on.
func (e *Engine) count(name string) {
	if e.tele != nil {
		e.tele.Counter(name).Inc()
	}
}

// event records a flight-recorder event when telemetry is on.
func (e *Engine) event(kind, run string, fields map[string]string) {
	e.tele.Event(kind, run, fields)
}

// shortHash abbreviates a job hash for log lines.
func shortHash(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// Run executes a job: validate, consult the cache, compute, store. It is
// the single execution path for every run mode; a cancelled context makes
// the underlying simulation loops return promptly with an error wrapping
// ctx.Err().
//
// When telemetry is configured, each executed (non-cached) run records
// its queue-to-start latency (submission to compute start: validation,
// hashing and the cache lookup), its duration under
// "engine.job_duration_seconds.<kind>", cache traffic under
// "engine.cache.{hits,misses,evictions}", and a per-run trace of nested
// spans stamped with a fresh run ID; the same run ID stamps the
// logger's start/finish/error lines.
func (e *Engine) Run(ctx context.Context, job Job) (*Result, error) {
	return e.RunWithProgress(ctx, job, nil)
}

// RunWithProgress executes a job like Run, additionally delivering this
// run's progress reports to progress (serialised; may be nil). The
// engine-wide Options.Progress hook, when configured, still receives
// every report — RunWithProgress fans out rather than replaces, which is
// what lets a serving layer attach one subscriber per submitted job while
// a process-wide progress printer keeps working.
func (e *Engine) RunWithProgress(ctx context.Context, job Job, progress func(Progress)) (*Result, error) {
	submitted := time.Now()
	emit := e.fanout(progress)
	if err := job.Validate(); err != nil {
		return nil, err
	}
	hash, err := job.Hash()
	if err != nil {
		return nil, err
	}
	// The run ID correlates this execution across every surface: log
	// lines, the trace snapshot and the flight recorder. A caller that
	// already carries one (the serving layer threads the request ID of
	// the submission) wins; otherwise the engine mints a fresh one.
	runID, ok := telemetry.RunIDFromContext(ctx)
	if !ok {
		runID = telemetry.NewRunID()
		ctx = telemetry.ContextWithRunID(ctx, runID)
	}
	if e.cache != nil {
		if cached, ok := e.cache.get(hash); ok {
			e.count("engine.cache.hits")
			e.event("job.cache_hit", runID, map[string]string{"kind": string(job.Kind), "job": IDFromHash(hash)})
			if e.logger != nil {
				e.logger.InfoContext(ctx, "job served from cache", "kind", job.Kind, "hash", shortHash(hash))
			}
			hit := *cached
			hit.FromCache = true
			hit.RunID = runID
			return &hit, nil
		}
		e.count("engine.cache.misses")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: job cancelled before start: %w", err)
	}
	requested := job
	job = job.normalized()

	var trace *telemetry.Trace
	var span *telemetry.Span
	if e.tele != nil {
		e.tele.Histogram("engine.queue_to_start_seconds", telemetry.DurationBuckets).
			Observe(time.Since(submitted).Seconds())
		trace = telemetry.NewTrace(runID, "job:"+string(job.Kind))
		span = trace.Root()
	}
	e.event("job.start", runID, map[string]string{"kind": string(job.Kind), "job": IDFromHash(hash)})
	if e.logger != nil {
		e.logger.InfoContext(ctx, "job start", "kind", job.Kind, "hash", shortHash(hash))
	}
	started := time.Now()
	var res *Result
	switch job.Kind {
	case JobMonteCarlo:
		// The requested spec: normalisation drops the worker count, which
		// does not change the result but sizes the run's goroutine pool.
		res, err = e.runMonteCarlo(ctx, requested.MonteCarlo, span, emit)
	case JobRareEvent:
		res, err = e.runRareEvent(ctx, job.RareEvent, span, emit)
	case JobExperiments:
		res, err = e.runExperiments(ctx, job.Experiments, span, emit)
	case JobAnalytic:
		res, err = e.runAnalytic(job.Analytic)
	default:
		err = fmt.Errorf("engine: unknown job kind %q", job.Kind)
	}
	elapsed := time.Since(started)
	if e.tele != nil {
		trace.End()
		e.tele.RecordTrace(trace)
		e.tele.Histogram("engine.job_duration_seconds."+string(job.Kind), telemetry.DurationBuckets).
			Observe(elapsed.Seconds())
	}
	if err != nil {
		e.event("job.failed", runID, map[string]string{"kind": string(job.Kind), "error": err.Error()})
		if e.logger != nil {
			e.logger.ErrorContext(ctx, "job failed", "kind", job.Kind, "elapsed", elapsed, "error", err)
		}
		return nil, err
	}
	e.event("job.finished", runID, map[string]string{"kind": string(job.Kind), "job": IDFromHash(hash), "elapsed": elapsed.String()})
	if e.logger != nil {
		e.logger.InfoContext(ctx, "job finished", "kind", job.Kind, "elapsed", elapsed, "hash", shortHash(hash))
	}
	res.Kind = job.Kind
	res.Hash = hash
	res.ID = IDFromHash(hash)
	res.RunID = runID
	if e.cache != nil {
		if evicted := e.cache.put(hash, res); evicted > 0 {
			if e.tele != nil {
				e.tele.Counter("engine.cache.evictions").Add(int64(evicted))
			}
			e.event("cache.evicted", runID, map[string]string{"entries": fmt.Sprintf("%d", evicted)})
		}
	}
	return res, nil
}

// WarmCache primes the result cache with a previously computed result
// under its canonical job hash. The serving layer replays persisted
// results through it on startup, so resubmitting a pre-restart spec is a
// cache hit rather than a recomputation. The result is stored as-is and
// shared with every future hit — treat it as immutable. Nil results,
// empty hashes and cache-disabled engines are no-ops.
func (e *Engine) WarmCache(hash string, res *Result) {
	if e.cache == nil || res == nil || hash == "" {
		return
	}
	if evicted := e.cache.put(hash, res); evicted > 0 && e.tele != nil {
		e.tele.Counter("engine.cache.evictions").Add(int64(evicted))
	}
}

// RunConfig executes a raw Monte-Carlo configuration through the engine's
// execution core. The facade's MonteCarlo helpers delegate here: an opaque
// Process cannot be canonically hashed, so these runs get cancellation and
// progress reporting but bypass the cache.
func (e *Engine) RunConfig(ctx context.Context, cfg montecarlo.Config) (*montecarlo.Result, error) {
	if cfg.Progress == nil && e.progress != nil {
		cfg.Progress = func(done, total int) {
			e.emit(Progress{Stage: "replications", Done: done, Total: total})
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = e.tele
	}
	return montecarlo.RunContext(ctx, cfg)
}

// modelCacheSize caps the resolved models an engine keeps.
const modelCacheSize = 16

// model is one resolved ModelSpec plus the independent process all jobs
// over it share. fs stays nil until a resolution under mu succeeds.
type model struct {
	mu   sync.Mutex
	fs   *faultmodel.FaultSet
	name string
	proc *devsim.IndependentProcess
}

// ResolveModel returns the fault set spec names and its display name,
// shared with every job over spec while it stays in the model cache.
func (e *Engine) ResolveModel(spec ModelSpec) (*faultmodel.FaultSet, string, error) {
	m, err := e.model(spec)
	if err != nil {
		return nil, "", err
	}
	return m.fs, m.name, nil
}

// model resolves spec through the model cache, keyed by the SHA-256 of
// its JSON. Concurrent requests wait on one resolution; a failed one
// leaves the entry empty for the next request to retry.
func (e *Engine) model(spec ModelSpec) (*model, error) {
	m := new(model)
	if e.models != nil {
		doc, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("engine: encoding model: %w", err)
		}
		sum := sha256.Sum256(doc)
		m = e.models.getOrPut(string(sum[:]), m)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fs != nil {
		e.count("engine.model_cache.hits")
		return m, nil
	}
	e.count("engine.model_cache.misses")
	fs, name, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	m.fs, m.name, m.proc = fs, name, devsim.NewIndependentProcess(fs)
	return m, nil
}

// stage opens a named child span under parent, returning a no-op closer
// when tracing is off.
func stage(parent *telemetry.Span, name string) func() {
	if parent == nil {
		return func() {}
	}
	sp := parent.Child(name)
	return sp.End
}

func (e *Engine) runMonteCarlo(ctx context.Context, spec *MonteCarloSpec, span *telemetry.Span, emit func(Progress)) (*Result, error) {
	m, err := e.model(spec.Model)
	if err != nil {
		return nil, err
	}
	adj, err := ResolveAdjudicator(spec.Arch, spec.Adjudicator, spec.Versions)
	if err != nil {
		return nil, err
	}
	var proc devsim.Process = m.proc
	if spec.Correlation > 0 {
		proc, err = devsim.NewCommonCauseProcess(m.fs, spec.Correlation, spec.Boost)
		if err != nil {
			return nil, err
		}
	}
	var repSpan *telemetry.Span
	if span != nil {
		repSpan = span.Child("replications")
		defer repSpan.End()
	}
	mc, err := montecarlo.RunContext(ctx, montecarlo.Config{
		Process:     proc,
		Versions:    spec.Versions,
		Adjudicator: adj,
		Reps:        spec.Reps,
		Workers:     spec.Workers,
		Seed:        spec.Seed,
		Streaming:   spec.Streaming,
		Sparse:      spec.Sparse,
		Progress: func(done, total int) {
			emit(Progress{Stage: "replications", Done: done, Total: total})
		},
		Metrics:   e.tele,
		TraceSpan: repSpan,
	})
	if err != nil {
		return nil, err
	}
	return &Result{ModelName: m.name, FaultSet: m.fs, MonteCarlo: mc}, nil
}

// rareStageOpts builds estimator options that forward intermediate Done
// counts for the named stage: rare-event stages report at context-check
// granularity, not just a leading Done: 0.
func (e *Engine) rareStageOpts(name string, sparse bool, adj system.Adjudicator, emit func(Progress)) montecarlo.RareOptions {
	return montecarlo.RareOptions{
		Progress: func(done, total int) {
			emit(Progress{Stage: name, Done: done, Total: total})
		},
		Metrics:     e.tele,
		Sparse:      sparse,
		Adjudicator: adj,
	}
}

func (e *Engine) runRareEvent(ctx context.Context, spec *RareEventSpec, span *telemetry.Span, emit func(Progress)) (*Result, error) {
	fs, name, err := e.ResolveModel(spec.Model)
	if err != nil {
		return nil, err
	}
	adj, err := ResolveAdjudicator("", spec.Adjudicator, spec.Versions)
	if err != nil {
		return nil, err
	}
	truth, err := system.PAnySystemFault(fs, adj, spec.Versions)
	if err != nil {
		return nil, err
	}
	endIS := stage(span, "importance sampling")
	is, err := montecarlo.EstimateRareSystemFaultOpts(ctx, fs, spec.Versions, spec.Reps, spec.Seed, spec.TiltTarget, e.rareStageOpts("importance sampling", spec.Sparse, adj, emit))
	endIS()
	if err != nil {
		return nil, err
	}
	endNaive := stage(span, "naive Monte Carlo")
	naive, err := montecarlo.EstimateNaiveSystemFaultOpts(ctx, fs, spec.Versions, spec.Reps, spec.Seed, e.rareStageOpts("naive Monte Carlo", spec.Sparse, adj, emit))
	endNaive()
	if err != nil {
		return nil, err
	}
	return &Result{
		ModelName: name,
		FaultSet:  fs,
		RareEvent: &RareEventResult{ImportanceSampling: is, Naive: naive, ClosedForm: truth},
	}, nil
}

func (e *Engine) runExperiments(ctx context.Context, spec *ExperimentsSpec, span *telemetry.Span, emit func(Progress)) (*Result, error) {
	cfg := experiments.Config{Seed: spec.Seed, Quick: spec.Quick, Streaming: spec.Streaming, Sparse: spec.Sparse, Metrics: e.tele}
	if spec.Adjudicator != "" {
		adj, err := ResolveAdjudicator("", spec.Adjudicator, spec.Versions)
		if err != nil {
			return nil, err
		}
		cfg.Versions, cfg.Adjudicator = spec.Versions, adj
	}
	results := make([]*experiments.Result, 0, len(spec.IDs))
	for i, id := range spec.IDs {
		emit(Progress{Stage: id, Done: i, Total: len(spec.IDs)})
		end := stage(span, id)
		res, err := experiments.RunContext(ctx, id, cfg)
		end()
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	emit(Progress{Stage: "done", Done: len(spec.IDs), Total: len(spec.IDs)})
	return &Result{Experiments: results}, nil
}

func (e *Engine) runAnalytic(spec *AnalyticSpec) (*Result, error) {
	fs, name, err := e.ResolveModel(spec.Model)
	if err != nil {
		return nil, err
	}
	gain, err := fs.Gain(spec.K)
	if err != nil {
		return nil, err
	}
	factor, err := faultmodel.SigmaBoundFactor(fs.PMax())
	if err != nil {
		return nil, err
	}
	ar := &AnalyticResult{
		Gain:             gain,
		SigmaBoundFactor: factor,
		SuccessRatio:     fs.SuccessRatio(),
		Confidence:       spec.Confidence,
	}
	if ratio, err := fs.RiskRatio(); err == nil {
		ar.RiskRatio, ar.HasRiskRatio = ratio, true
	}
	for _, m := range []int{1, 2} {
		bound, err := fs.ConfidenceBoundAt(m, spec.Confidence)
		if err != nil {
			return nil, err
		}
		cb := ConfidenceBound{Versions: m, Bound: bound}
		if fs.N() <= faultmodel.MaxExactFaults {
			dist, err := fs.ExactPFD(m)
			if err != nil {
				return nil, err
			}
			q, err := dist.Quantile(spec.Confidence)
			if err != nil {
				return nil, err
			}
			cb.ExactQuantile, cb.HasExact = q, true
		}
		ar.Bounds = append(ar.Bounds, cb)
	}
	return &Result{ModelName: name, FaultSet: fs, Analytic: ar}, nil
}
