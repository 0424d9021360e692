package engine

import (
	"context"
	"strings"
	"testing"

	"diversity/internal/telemetry"
)

// TestTelemetryCacheCounters asserts the cache hit/miss counters match
// observed Run behaviour: a first run misses, an identical second run
// hits (and is served FromCache), and a different job misses again.
func TestTelemetryCacheCounters(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	eng := New(Options{Telemetry: reg})
	job := NewMonteCarloJob(MonteCarloSpec{Model: testModel(t), Versions: 2, Reps: 2000, Seed: 7})

	first, err := eng.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if first.FromCache {
		t.Fatal("first run served from cache")
	}
	second, err := eng.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !second.FromCache {
		t.Fatal("second identical run not served from cache")
	}
	other := NewMonteCarloJob(MonteCarloSpec{Model: testModel(t), Versions: 2, Reps: 2000, Seed: 8})
	if _, err := eng.Run(context.Background(), other); err != nil {
		t.Fatalf("third Run: %v", err)
	}

	if got := reg.Counter("engine.cache.hits").Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := reg.Counter("engine.cache.misses").Value(); got != 2 {
		t.Errorf("cache misses = %d, want 2", got)
	}

	snap := reg.Snapshot()
	durations := snap.Histograms["engine.job_duration_seconds.montecarlo"]
	if durations.Count != 2 {
		t.Errorf("job duration observations = %d, want 2 (cache hits record no duration)", durations.Count)
	}
	if qts := snap.Histograms["engine.queue_to_start_seconds"]; qts.Count != 2 {
		t.Errorf("queue-to-start observations = %d, want 2", qts.Count)
	}
	if got := reg.Counter("montecarlo.replications_total").Value(); got != 4000 {
		t.Errorf("replications_total = %d, want 4000 (two executed runs of 2000)", got)
	}
	if rps := snap.Gauges["montecarlo.replications_per_second"]; rps <= 0 {
		t.Errorf("replications_per_second = %v, want > 0", rps)
	}
}

// TestTelemetryEvictionCounter fills a 1-entry cache with two distinct
// jobs and asserts exactly one eviction is counted.
func TestTelemetryEvictionCounter(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	eng := New(Options{CacheSize: 1, Telemetry: reg})
	for seed := uint64(1); seed <= 2; seed++ {
		job := NewAnalyticJob(AnalyticSpec{Model: ModelSpec{Scenario: "commercial-grade", ScenarioSeed: seed}, K: 1, Confidence: 0.99})
		if _, err := eng.Run(context.Background(), job); err != nil {
			t.Fatalf("Run(seed %d): %v", seed, err)
		}
	}
	if got := reg.Counter("engine.cache.evictions").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestTelemetryTraceShape runs one Monte-Carlo job and asserts the
// recorded trace has the documented span hierarchy: job → stage →
// worker shard.
func TestTelemetryTraceShape(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	eng := New(Options{Telemetry: reg})
	// 10000 replications are five blocks, enough for both workers.
	job := NewMonteCarloJob(MonteCarloSpec{Model: testModel(t), Versions: 2, Reps: 10000, Seed: 9, Workers: 2})
	if _, err := eng.Run(context.Background(), job); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runs := reg.Snapshot().Runs
	if len(runs) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(runs))
	}
	root := runs[0].Root
	if root.Name != "job:montecarlo" {
		t.Errorf("root span = %q, want job:montecarlo", root.Name)
	}
	if !strings.HasPrefix(runs[0].ID, "run-") {
		t.Errorf("trace ID = %q, want run-…", runs[0].ID)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "replications" {
		t.Fatalf("stage spans = %+v, want one replications span", root.Children)
	}
	shards := root.Children[0].Children
	if len(shards) != 2 {
		t.Fatalf("shard spans = %+v, want 2", shards)
	}
	for _, sp := range shards {
		if !strings.HasPrefix(sp.Name, "shard-") {
			t.Errorf("shard span named %q, want shard-…", sp.Name)
		}
	}
}

// TestRareProgressMonotonic asserts the satellite contract for
// rare-event progress: both estimator stages emit intermediate Done
// counts (not just a leading 0), Done never decreases within a stage,
// and each stage ends at Done == Total.
func TestRareProgressMonotonic(t *testing.T) {
	t.Parallel()

	perStage := make(map[string][]int)
	var order []string
	eng := New(Options{Progress: func(p Progress) {
		if len(order) == 0 || order[len(order)-1] != p.Stage {
			order = append(order, p.Stage)
		}
		perStage[p.Stage] = append(perStage[p.Stage], p.Done)
		if p.Total != 20000 {
			t.Errorf("stage %q reported Total %d, want 20000", p.Stage, p.Total)
		}
	}})
	// 20000 reps crosses the 2048-replication context-check boundary
	// several times, so each stage must report intermediate counts.
	job := NewRareEventJob(RareEventSpec{Model: testModel(t), Versions: 2, Reps: 20000, Seed: 5})
	if _, err := eng.Run(context.Background(), job); err != nil {
		t.Fatalf("Run: %v", err)
	}

	wantStages := []string{"importance sampling", "naive Monte Carlo"}
	if len(order) != len(wantStages) || order[0] != wantStages[0] || order[1] != wantStages[1] {
		t.Fatalf("stage order = %v, want %v", order, wantStages)
	}
	for _, stage := range wantStages {
		dones := perStage[stage]
		if len(dones) < 3 {
			t.Fatalf("stage %q reported %v, want at least first/intermediate/final counts", stage, dones)
		}
		for i := 1; i < len(dones); i++ {
			if dones[i] < dones[i-1] {
				t.Errorf("stage %q Done regressed: %v", stage, dones)
				break
			}
		}
		if dones[0] != 0 {
			t.Errorf("stage %q first Done = %d, want 0", stage, dones[0])
		}
		if last := dones[len(dones)-1]; last != 20000 {
			t.Errorf("stage %q final Done = %d, want 20000", stage, last)
		}
		intermediate := false
		for _, d := range dones {
			if d > 0 && d < 20000 {
				intermediate = true
			}
		}
		if !intermediate {
			t.Errorf("stage %q emitted no intermediate Done counts: %v", stage, dones)
		}
	}
}

// TestSetDefaultOptions asserts facade users can attach telemetry and
// progress to the shared default engine without constructing their own.
// Not parallel: it mutates process-global state (and restores it).
func TestSetDefaultOptions(t *testing.T) {
	defer SetDefaultOptions(Options{})

	reg := telemetry.NewRegistry()
	reports := 0
	SetDefaultOptions(Options{Telemetry: reg, Progress: func(Progress) { reports++ }})
	job := NewMonteCarloJob(MonteCarloSpec{Model: testModel(t), Versions: 2, Reps: 2000, Seed: 11})
	if _, err := Run(context.Background(), job); err != nil {
		t.Fatalf("Run through default engine: %v", err)
	}
	if reports == 0 {
		t.Error("progress hook attached via SetDefaultOptions never fired")
	}
	if got := reg.Counter("engine.cache.misses").Value(); got != 1 {
		t.Errorf("default engine recorded %d cache misses, want 1", got)
	}

	// Replacing the options discards the old cache: the same job misses
	// again on the fresh default engine.
	reg2 := telemetry.NewRegistry()
	SetDefaultOptions(Options{Telemetry: reg2})
	if _, err := Run(context.Background(), job); err != nil {
		t.Fatalf("Run after reconfiguration: %v", err)
	}
	if got := reg2.Counter("engine.cache.misses").Value(); got != 1 {
		t.Errorf("reconfigured default engine recorded %d cache misses, want 1 (cache must be fresh)", got)
	}
}
