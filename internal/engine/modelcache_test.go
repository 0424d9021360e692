package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/scenario"
	"diversity/internal/telemetry"
)

// largeModel returns an inline model over scenario.LargeUniverse(n): four
// equal-p groups, so the sparse kernel skip-samples within each.
func largeModel(t testing.TB, n int) ModelSpec {
	t.Helper()
	sc, err := scenario.LargeUniverse(n)
	if err != nil {
		t.Fatalf("LargeUniverse(%d): %v", n, err)
	}
	return ModelFromFaultSet(sc.FaultSet, sc.Name)
}

// mcBits renders every sample, aggregate and count of a Monte-Carlo
// result; %v prints each float64 in its shortest exact form, so equal
// strings mean equal bits.
func mcBits(r *montecarlo.Result) string {
	aggs := ""
	if r.Streaming {
		aggs = fmt.Sprintf("%v|%v", *r.VersionAgg, *r.SystemAgg)
	}
	return fmt.Sprintf("%v|%v|%s|%d|%d|%d", r.VersionPFD, r.SystemPFD, aggs,
		r.VersionFaultFree, r.SystemFaultFree, r.SparseSkips)
}

// kernelSpecs returns one Monte-Carlo spec per kernel (dense, sparse)
// and aggregation mode over model.
func kernelSpecs(model ModelSpec, seed uint64) map[string]MonteCarloSpec {
	specs := make(map[string]MonteCarloSpec)
	for _, streaming := range []bool{false, true} {
		base := MonteCarloSpec{Model: model, Versions: 2, Reps: 3000, Seed: seed, Streaming: streaming}
		dense, sparse := base, base
		sparse.Sparse = true
		specs[fmt.Sprintf("dense/streaming=%v", streaming)] = dense
		specs[fmt.Sprintf("sparse/streaming=%v", streaming)] = sparse
	}
	return specs
}

// TestWarmModelSameBits runs fixed-seed jobs on fresh engines and again
// on an engine whose model cache — and the shared process's lazily built
// groups and thresholds — other jobs over the same model have already
// warmed. Every kernel must give the same bits either way.
func TestWarmModelSameBits(t *testing.T) {
	t.Parallel()

	ctx := context.Background()
	model := largeModel(t, 4096)
	reg := telemetry.NewRegistry()
	warm := New(Options{Telemetry: reg})
	for _, spec := range kernelSpecs(model, 99) {
		if _, err := warm.Run(ctx, NewMonteCarloJob(spec)); err != nil {
			t.Fatalf("warming run: %v", err)
		}
	}
	for name, spec := range kernelSpecs(model, 7) {
		cold, err := New(Options{}).Run(ctx, NewMonteCarloJob(spec))
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		hot, err := warm.Run(ctx, NewMonteCarloJob(spec))
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		if hot.FromCache {
			t.Fatalf("%s: warm run was a result-cache hit", name)
		}
		if got, want := mcBits(hot.MonteCarlo), mcBits(cold.MonteCarlo); got != want {
			t.Errorf("%s: warm model changed the result bits", name)
		}
	}
	if got := reg.Counter("engine.model_cache.misses").Value(); got != 1 {
		t.Errorf("model cache misses = %d, want 1", got)
	}

	for _, sparse := range []bool{false, true} {
		spec := RareEventSpec{Model: ModelSpec{Scenario: "safety-grade", ScenarioSeed: 1}, Versions: 2, Reps: 4000, Sparse: sparse}
		spec.Seed = 98
		if _, err := warm.Run(ctx, NewRareEventJob(spec)); err != nil {
			t.Fatalf("warming rare run: %v", err)
		}
		spec.Seed = 3
		cold, err := New(Options{}).Run(ctx, NewRareEventJob(spec))
		if err != nil {
			t.Fatalf("rare sparse=%v cold: %v", sparse, err)
		}
		hot, err := warm.Run(ctx, NewRareEventJob(spec))
		if err != nil {
			t.Fatalf("rare sparse=%v warm: %v", sparse, err)
		}
		if got, want := fmt.Sprintf("%v", *hot.RareEvent), fmt.Sprintf("%v", *cold.RareEvent); got != want {
			t.Errorf("rare sparse=%v: warm model gave %s, cold %s", sparse, got, want)
		}
	}
}

// TestModelCacheConcurrentJobs starts eight jobs with different seeds over
// one model at once: the model is resolved once and every result carries
// the same fault set.
func TestModelCacheConcurrentJobs(t *testing.T) {
	t.Parallel()

	model := ModelSpec{Scenario: "million-faults", ScenarioSeed: 1}
	if testing.Short() {
		model = largeModel(t, 8192)
	}
	reg := telemetry.NewRegistry()
	eng := New(Options{Telemetry: reg})
	const jobs = 8
	results := make([]*Result, jobs)
	errs := make([]error, jobs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			spec := MonteCarloSpec{Model: model, Versions: 2, Reps: 2048, Seed: uint64(i + 1), Streaming: true, Sparse: true}
			results[i], errs[i] = eng.Run(context.Background(), NewMonteCarloJob(spec))
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := reg.Counter("engine.model_cache.misses").Value(); got != 1 {
		t.Errorf("model cache misses = %d, want 1", got)
	}
	if got := reg.Counter("engine.model_cache.hits").Value(); got != jobs-1 {
		t.Errorf("model cache hits = %d, want %d", got, jobs-1)
	}
	for i, res := range results {
		if res.FaultSet == nil || res.FaultSet != results[0].FaultSet {
			t.Errorf("job %d fault set %p, want the shared %p", i, res.FaultSet, results[0].FaultSet)
		}
	}
}

// TestModelCacheSharedAcrossKinds: Monte-Carlo, rare-event and analytic
// jobs over one spec, and ResolveModel, all see one fault set.
func TestModelCacheSharedAcrossKinds(t *testing.T) {
	t.Parallel()

	model := testModel(t)
	eng := New(Options{})
	fs, name, err := eng.ResolveModel(model)
	if err != nil || name != "unit" {
		t.Fatalf("ResolveModel = %q, %v", name, err)
	}
	for _, job := range []Job{
		NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 500, Seed: 1}),
		NewRareEventJob(RareEventSpec{Model: model, Versions: 2, Reps: 500, Seed: 1}),
		NewAnalyticJob(AnalyticSpec{Model: model, K: 2, Confidence: 0.99}),
	} {
		res, err := eng.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", job.Kind, err)
		}
		if res.FaultSet != fs {
			t.Errorf("%s job resolved its own fault set", job.Kind)
		}
	}
}

// TestModelCacheDisabled: with DisableCache every job and every
// ResolveModel call resolves the model once, afresh.
func TestModelCacheDisabled(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	eng := New(Options{DisableCache: true, Telemetry: reg})
	model := testModel(t)
	seen := make(map[*faultmodel.FaultSet]bool)
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := eng.Run(context.Background(), NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 500, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		seen[res.FaultSet] = true
	}
	fs, _, err := eng.ResolveModel(model)
	if err != nil {
		t.Fatal(err)
	}
	seen[fs] = true
	if len(seen) != 4 {
		t.Errorf("%d distinct fault sets over 3 jobs and 1 ResolveModel call, want 4", len(seen))
	}
	if got := reg.Counter("engine.model_cache.misses").Value(); got != 4 {
		t.Errorf("%d resolutions over 3 jobs and 1 ResolveModel call, want 4", got)
	}
}

// TestModelCacheRetriesFailures: a spec that passes validation but fails
// to resolve is not cached, so the next call resolves it again.
func TestModelCacheRetriesFailures(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	eng := New(Options{Telemetry: reg})
	bad := ModelSpec{Faults: []faultmodel.Fault{{P: 2, Q: 0.1}}, Name: "bad"}
	job := NewAnalyticJob(AnalyticSpec{Model: bad, K: 2, Confidence: 0.99})
	for range 2 {
		if _, err := eng.Run(context.Background(), job); err == nil {
			t.Fatal("job over an invalid inline model succeeded")
		}
	}
	if got := reg.Counter("engine.model_cache.misses").Value(); got != 2 {
		t.Errorf("model cache misses = %d, want 2 (the failure must not be cached)", got)
	}
}

// BenchmarkRunSparseMillionFaults runs streaming sparse jobs over the
// million-fault scenario with a fresh seed each iteration: the result
// cache always misses, and only the model cache spares the resolution.
func BenchmarkRunSparseMillionFaults(b *testing.B) {
	eng := New(Options{})
	spec := MonteCarloSpec{
		Model:    ModelSpec{Scenario: "million-faults", ScenarioSeed: 1},
		Versions: 2, Reps: 20000, Streaming: true, Sparse: true,
	}
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		if _, err := eng.Run(context.Background(), NewMonteCarloJob(spec)); err != nil {
			b.Fatal(err)
		}
	}
}
