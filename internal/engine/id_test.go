package engine

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func analyticTestJob() Job {
	return NewAnalyticJob(AnalyticSpec{
		Model:      ModelSpec{Scenario: "safety-grade", ScenarioSeed: 1},
		K:          2,
		Confidence: 0.99,
	})
}

func TestJobIDStableAndHashDerived(t *testing.T) {
	job := analyticTestJob()
	id, err := job.ID()
	if err != nil {
		t.Fatalf("ID: %v", err)
	}
	hash, err := job.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if want := IDFromHash(hash); id != want {
		t.Fatalf("job ID %q does not match IDFromHash %q", id, want)
	}
	if !strings.HasPrefix(id, "job-") || len(id) != len("job-")+16 {
		t.Fatalf("job ID %q not of the form job-<16 hex digits>", id)
	}
	again, err := analyticTestJob().ID()
	if err != nil {
		t.Fatalf("ID: %v", err)
	}
	if again != id {
		t.Fatalf("identical specs got different IDs: %q vs %q", again, id)
	}
}

// TestMonteCarloJobIDIgnoresCoreCount: a Monte-Carlo job that leaves
// workers at 0 runs on every core, yet its result — and so its ID — must
// be the same on every host. Not parallel: it changes GOMAXPROCS.
func TestMonteCarloJobIDIgnoresCoreCount(t *testing.T) {
	job := NewMonteCarloJob(MonteCarloSpec{
		Model: ModelSpec{Scenario: "safety-grade", ScenarioSeed: 1}, Versions: 2, Reps: 20000, Seed: 1,
	})
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one, err := job.ID()
	if err != nil {
		t.Fatalf("ID: %v", err)
	}
	runtime.GOMAXPROCS(4)
	four, err := job.ID()
	if err != nil {
		t.Fatalf("ID: %v", err)
	}
	if one != four {
		t.Errorf("job ID %q at GOMAXPROCS 1, %q at 4", one, four)
	}
}

func TestResultCarriesIDThroughCache(t *testing.T) {
	eng := New(Options{})
	job := analyticTestJob()
	wantID, err := job.ID()
	if err != nil {
		t.Fatalf("ID: %v", err)
	}
	first, err := eng.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first.ID != wantID {
		t.Fatalf("computed result ID = %q, want %q", first.ID, wantID)
	}
	if first.FromCache {
		t.Fatal("first run unexpectedly served from cache")
	}
	second, err := eng.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("Run (cached): %v", err)
	}
	if !second.FromCache {
		t.Fatal("second identical run was not served from cache")
	}
	if second.ID != wantID {
		t.Fatalf("cached result ID = %q, want %q", second.ID, wantID)
	}
}

// TestRunWithProgressFansOut checks that a per-run hook and the
// engine-wide hook both see every report of a run, and that a nil per-run
// hook leaves the engine-wide path intact.
func TestRunWithProgressFansOut(t *testing.T) {
	var mu sync.Mutex
	var global, perRun []Progress
	eng := New(Options{Progress: func(p Progress) {
		mu.Lock()
		global = append(global, p)
		mu.Unlock()
	}})
	job := NewMonteCarloJob(MonteCarloSpec{
		Model:    ModelSpec{Scenario: "safety-grade", ScenarioSeed: 1},
		Versions: 2,
		Reps:     2000,
		Workers:  2,
		Seed:     1,
	})
	if _, err := eng.RunWithProgress(context.Background(), job, func(p Progress) {
		mu.Lock()
		perRun = append(perRun, p)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("RunWithProgress: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perRun) == 0 {
		t.Fatal("per-run hook saw no progress reports")
	}
	if len(global) != len(perRun) {
		t.Fatalf("engine-wide hook saw %d reports, per-run hook %d; want identical fan-out", len(global), len(perRun))
	}
	for _, p := range perRun {
		if p.Stage != "replications" {
			t.Fatalf("unexpected stage %q", p.Stage)
		}
		if p.Total != 2000 {
			t.Fatalf("progress total = %d, want 2000", p.Total)
		}
	}
}
