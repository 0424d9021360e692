package engine

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/system"
)

func testModel(t *testing.T) ModelSpec {
	t.Helper()
	return ModelSpec{
		Faults: []faultmodel.Fault{
			{P: 0.3, Q: 0.05},
			{P: 0.2, Q: 0.1},
			{P: 0.05, Q: 0.02},
		},
		Name: "unit",
	}
}

// TestRunCancellation is the headline cancellation check: a 10M-rep job is
// cancelled from its first progress report and must stop well before
// completion, returning ctx.Err().
func TestRunCancellation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	eng := New(Options{Progress: func(Progress) { once.Do(cancel) }})
	job := NewMonteCarloJob(MonteCarloSpec{
		Model:    ModelSpec{Scenario: "commercial-grade", ScenarioSeed: 1},
		Versions: 2,
		Reps:     10_000_000,
		Seed:     1,
	})
	start := time.Now()
	_, err := eng.Run(ctx, job)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under cancelled context: err = %v, want context.Canceled", err)
	}
	// The full 10M-rep run takes on the order of minutes; a cancelled one
	// only finishes in-flight worker chunks.
	if elapsed > 15*time.Second {
		t.Errorf("cancelled run took %v; cancellation is not prompt", elapsed)
	}
}

func TestRunPreCancelled(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(Options{}).Run(ctx, NewAnalyticJob(AnalyticSpec{Model: testModel(t), K: 1, Confidence: 0.99}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run: err = %v, want context.Canceled", err)
	}
}

// TestCacheHit checks the caching contract: the second identical job is
// served from the cache with zero new replications, and a job differing
// only in seed misses.
func TestCacheHit(t *testing.T) {
	t.Parallel()

	var progressCalls atomic.Int64
	eng := New(Options{Progress: func(Progress) { progressCalls.Add(1) }})
	spec := MonteCarloSpec{
		Model:    ModelSpec{Scenario: "safety-grade", ScenarioSeed: 3},
		Versions: 2,
		Reps:     20_000,
		Workers:  2,
		Seed:     5,
	}
	first, err := eng.Run(context.Background(), NewMonteCarloJob(spec))
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if first.FromCache {
		t.Error("first run reported FromCache")
	}
	if progressCalls.Load() == 0 {
		t.Error("first run reported no progress")
	}

	before := progressCalls.Load()
	second, err := eng.Run(context.Background(), NewMonteCarloJob(spec))
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !second.FromCache {
		t.Error("identical job was recomputed, want cache hit")
	}
	if got := progressCalls.Load(); got != before {
		t.Errorf("cache hit performed replications: %d progress reports after the first run", got-before)
	}
	if second.MonteCarlo != first.MonteCarlo {
		t.Error("cache hit returned a different result payload")
	}
	if second.Hash != first.Hash {
		t.Errorf("hashes differ across identical jobs: %s vs %s", second.Hash, first.Hash)
	}

	seeded := spec
	seeded.Seed++
	third, err := eng.Run(context.Background(), NewMonteCarloJob(seeded))
	if err != nil {
		t.Fatalf("third Run: %v", err)
	}
	if third.FromCache {
		t.Error("job differing only in seed hit the cache")
	}
	if third.Hash == first.Hash {
		t.Error("job differing only in seed hashed identically")
	}
	if progressCalls.Load() == before {
		t.Error("seed-differing job performed no replications")
	}
}

func TestCacheDisabled(t *testing.T) {
	t.Parallel()

	eng := New(Options{DisableCache: true})
	spec := MonteCarloSpec{Model: testModel(t), Versions: 2, Reps: 2_000, Workers: 1, Seed: 1}
	for i := 0; i < 2; i++ {
		res, err := eng.Run(context.Background(), NewMonteCarloJob(spec))
		if err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
		if res.FromCache {
			t.Errorf("run %d served from cache with caching disabled", i)
		}
	}
}

// TestEngineMatchesDirectRun checks bit-identical equivalence with the
// pre-engine execution path: for a fixed seed the engine's populations
// equal montecarlo.Run's exactly.
func TestEngineMatchesDirectRun(t *testing.T) {
	t.Parallel()

	model := testModel(t)
	fs, err := faultmodel.New(model.Faults)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	direct, err := montecarlo.Run(montecarlo.Config{
		Process:  devsim.NewIndependentProcess(fs),
		Versions: 2,
		Reps:     20_000,
		Workers:  4,
		Seed:     9,
	})
	if err != nil {
		t.Fatalf("montecarlo.Run: %v", err)
	}
	res, err := New(Options{}).Run(context.Background(), NewMonteCarloJob(MonteCarloSpec{
		Model:    model,
		Versions: 2,
		Reps:     20_000,
		Workers:  4,
		Seed:     9,
	}))
	if err != nil {
		t.Fatalf("engine Run: %v", err)
	}
	mc := res.MonteCarlo
	if mc.Reps != direct.Reps ||
		mc.VersionFaultFree != direct.VersionFaultFree ||
		mc.SystemFaultFree != direct.SystemFaultFree {
		t.Fatalf("engine counts differ: %+v vs %+v", mc, direct)
	}
	for i := range direct.VersionPFD {
		if mc.VersionPFD[i] != direct.VersionPFD[i] || mc.SystemPFD[i] != direct.SystemPFD[i] {
			t.Fatalf("replication %d differs: (%v, %v) vs (%v, %v)",
				i, mc.VersionPFD[i], mc.SystemPFD[i], direct.VersionPFD[i], direct.SystemPFD[i])
		}
	}
}

func TestRareEventJob(t *testing.T) {
	t.Parallel()

	model := ModelSpec{
		Faults: []faultmodel.Fault{{P: 0.003, Q: 0.001}, {P: 0.002, Q: 0.002}},
		Name:   "rare",
	}
	res, err := New(Options{}).Run(context.Background(), NewRareEventJob(RareEventSpec{
		Model: model, Versions: 2, Reps: 20_000, Seed: 3,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fs, _, err := model.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// TiltTarget 0 normalises to the 0.3 default.
	want, err := montecarlo.EstimateRareSystemFault(fs, 2, 20_000, 3, 0.3)
	if err != nil {
		t.Fatalf("EstimateRareSystemFault: %v", err)
	}
	if res.RareEvent.ImportanceSampling != want {
		t.Errorf("importance-sampling estimate differs: %+v vs %+v", res.RareEvent.ImportanceSampling, want)
	}
	truth, err := fs.PAnyFault(2)
	if err != nil {
		t.Fatalf("PAnyFault: %v", err)
	}
	if res.RareEvent.ClosedForm != truth {
		t.Errorf("closed form = %v, want %v", res.RareEvent.ClosedForm, truth)
	}
}

func TestExperimentsJob(t *testing.T) {
	t.Parallel()

	var stages []string
	eng := New(Options{Progress: func(p Progress) { stages = append(stages, p.Stage) }})
	res, err := eng.Run(context.Background(), NewExperimentsJob(ExperimentsSpec{
		IDs: []string{"E02", "E03"}, Seed: 1, Quick: true,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Experiments) != 2 || res.Experiments[0].ID != "E02" || res.Experiments[1].ID != "E03" {
		t.Fatalf("unexpected suite results: %+v", res.Experiments)
	}
	sawE02 := false
	for _, s := range stages {
		if s == "E02" {
			sawE02 = true
		}
	}
	if !sawE02 {
		t.Errorf("progress stages %v missing experiment ID", stages)
	}

	again, err := eng.Run(context.Background(), NewExperimentsJob(ExperimentsSpec{
		IDs: []string{"E02", "E03"}, Seed: 1, Quick: true,
	}))
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !again.FromCache {
		t.Error("identical suite job missed the cache")
	}
}

func TestAnalyticJob(t *testing.T) {
	t.Parallel()

	model := testModel(t)
	res, err := New(Options{}).Run(context.Background(), NewAnalyticJob(AnalyticSpec{
		Model: model, K: 1.5, Confidence: 0.99,
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fs, _, err := model.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	gain, err := fs.Gain(1.5)
	if err != nil {
		t.Fatalf("Gain: %v", err)
	}
	if res.Analytic.Gain != gain {
		t.Errorf("gain report differs: %+v vs %+v", res.Analytic.Gain, gain)
	}
	if !res.Analytic.HasRiskRatio {
		t.Error("risk ratio missing for a faultable model")
	}
	if len(res.Analytic.Bounds) != 2 || !res.Analytic.Bounds[0].HasExact {
		t.Errorf("confidence bounds incomplete: %+v", res.Analytic.Bounds)
	}
}

// TestHashNormalisation checks that derived defaults do not split the
// cache key space.
func TestHashNormalisation(t *testing.T) {
	t.Parallel()

	model := testModel(t)
	base := MonteCarloSpec{Model: model, Versions: 2, Reps: 1 << 30, Seed: 1}
	explicit := base
	explicit.Workers = 3 // the worker count does not change the result
	explicit.Arch = "1oom"
	h1, err := NewMonteCarloJob(base).Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	h2, err := NewMonteCarloJob(explicit).Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if h1 != h2 {
		t.Errorf("defaulted and explicit specs hash differently: %s vs %s", h1, h2)
	}

	tilt0, err := NewRareEventJob(RareEventSpec{Model: model, Versions: 2, Reps: 100, Seed: 1}).Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	tilt3, err := NewRareEventJob(RareEventSpec{Model: model, Versions: 2, Reps: 100, Seed: 1, TiltTarget: 0.3}).Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if tilt0 != tilt3 {
		t.Error("default tilt target and explicit 0.3 hash differently")
	}

	// Majority needs a pool of at least 3, so the architecture comparison
	// runs at a fixed valid pool size: only the voting rule differs.
	base3 := base
	base3.Versions = 3
	h1oom, err := NewMonteCarloJob(base3).Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	arch := base3
	arch.Arch = "majority"
	h3, err := NewMonteCarloJob(arch).Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if h3 == h1oom {
		t.Error("different architectures hash identically")
	}
}

// TestJobJSONRoundTrip checks that a job survives JSON encoding with its
// hash intact — the property persisted job queues will rely on.
func TestJobJSONRoundTrip(t *testing.T) {
	t.Parallel()

	job := NewMonteCarloJob(MonteCarloSpec{
		Model:       ModelSpec{Scenario: "many-small-faults", ScenarioSeed: 7},
		Versions:    3,
		Arch:        "majority",
		Reps:        5_000,
		Workers:     2,
		Seed:        11,
		Correlation: 0.2,
		Boost:       3,
	})
	doc, err := json.Marshal(job)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var decoded Job
	if err := json.Unmarshal(doc, &decoded); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	h1, err := job.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	h2, err := decoded.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if h1 != h2 {
		t.Errorf("hash changed across JSON round trip: %s vs %s", h1, h2)
	}
}

func TestJobValidation(t *testing.T) {
	t.Parallel()

	model := testModel(t)
	cases := []struct {
		name string
		job  Job
	}{
		{"no spec", Job{Kind: JobMonteCarlo}},
		{"kind/spec mismatch", Job{Kind: JobMonteCarlo, Analytic: &AnalyticSpec{Model: model, K: 1, Confidence: 0.9}}},
		{"two specs", Job{Kind: JobMonteCarlo, MonteCarlo: &MonteCarloSpec{Model: model, Versions: 2, Reps: 10}, Analytic: &AnalyticSpec{Model: model}}},
		{"unknown kind", Job{Kind: "bogus", Analytic: &AnalyticSpec{Model: model, K: 1, Confidence: 0.9}}},
		{"zero reps", NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 0, Seed: 1})},
		{"negative workers", NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 10, Workers: -1, Seed: 1})},
		{"zero versions", NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 0, Reps: 10, Seed: 1})},
		{"bad arch", NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 10, Arch: "bogus", Seed: 1})},
		// arch is a wire alias with a closed set of names: adjudicator
		// spellings are rejected there, so one rule keeps one job hash.
		{"arch spelled as adjudicator kooN", NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 3, Reps: 10, Arch: "2oo3", Seed: 1})},
		{"arch spelled as adjudicator 1oon", NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 10, Arch: "1oon", Seed: 1})},
		{"bad correlation", NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 10, Correlation: 2, Seed: 1})},
		{"empty model", NewMonteCarloJob(MonteCarloSpec{Versions: 2, Reps: 10, Seed: 1})},
		{"model with scenario and faults", NewMonteCarloJob(MonteCarloSpec{Model: ModelSpec{Scenario: "safety-grade", Faults: model.Faults}, Versions: 2, Reps: 10, Seed: 1})},
		{"rare reps below two", NewRareEventJob(RareEventSpec{Model: model, Versions: 2, Reps: 1, Seed: 1})},
		{"rare tilt at one", NewRareEventJob(RareEventSpec{Model: model, Versions: 2, Reps: 10, Seed: 1, TiltTarget: 1})},
		{"negative k", NewAnalyticJob(AnalyticSpec{Model: model, K: -1, Confidence: 0.9})},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if err := tc.job.Validate(); err == nil {
				t.Errorf("Validate(%+v) succeeded, want error", tc.job)
			}
			if _, err := New(Options{}).Run(context.Background(), tc.job); err == nil {
				t.Errorf("Run accepted invalid job %+v", tc.job)
			}
		})
	}
}

// TestResolveAdjudicatorArchAlias: the arch wire alias resolves to the
// same adjudicator as the adjudicator field spelling that rule.
func TestResolveAdjudicatorArchAlias(t *testing.T) {
	t.Parallel()

	cases := []struct {
		arch, adjudicator string
		versions          int
		want              system.Adjudicator
	}{
		{"", "", 2, system.OneOutOfN{}},
		{"1oom", "", 2, system.OneOutOfN{}},
		{"majority", "", 3, system.MajorityVote{}},
		{"", "majority", 3, system.MajorityVote{}},
	}
	for _, tc := range cases {
		got, err := ResolveAdjudicator(tc.arch, tc.adjudicator, tc.versions)
		if err != nil || got != tc.want {
			t.Errorf("ResolveAdjudicator(%q, %q, %d) = %#v, %v; want %#v", tc.arch, tc.adjudicator, tc.versions, got, err, tc.want)
		}
	}
	var vce *system.VersionCountError
	if _, err := ResolveAdjudicator("majority", "", 2); !errors.As(err, &vce) {
		t.Errorf("arch majority over 2 versions: error = %v, want *VersionCountError", err)
	}
}

func TestUnknownScenarioFailsRun(t *testing.T) {
	t.Parallel()

	_, err := New(Options{}).Run(context.Background(), NewMonteCarloJob(MonteCarloSpec{
		Model:    ModelSpec{Scenario: "bogus"},
		Versions: 2,
		Reps:     10,
		Seed:     1,
	}))
	if err == nil {
		t.Fatal("unknown scenario succeeded, want error")
	}
}

// TestConcurrentRuns hammers one engine from many goroutines to exercise
// the cache under the race detector.
func TestConcurrentRuns(t *testing.T) {
	t.Parallel()

	eng := New(Options{CacheSize: 4})
	model := testModel(t)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Run(context.Background(), NewMonteCarloJob(MonteCarloSpec{
				Model:    model,
				Versions: 2,
				Reps:     2_000,
				Workers:  1,
				Seed:     uint64(i % 4),
			}))
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent run %d: %v", i, err)
		}
	}
}
