package montecarlo

import (
	"context"
	"errors"
	"sync"
	"testing"

	"diversity/internal/telemetry"
)

// TestRunRecordsMetrics asserts a completed run publishes its
// throughput and shard measurements, and that enabling metrics does not
// perturb the sampled populations.
func TestRunRecordsMetrics(t *testing.T) {
	t.Parallel()

	const reps = 20_000
	reg := telemetry.NewRegistry()
	cfg := Config{Process: testProcess(t), Versions: 2, Reps: reps, Workers: 4, Seed: 3}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.Metrics = reg
	metered, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	for i := range plain.SystemPFD {
		if plain.SystemPFD[i] != metered.SystemPFD[i] {
			t.Fatalf("rep %d: metrics perturbed the run", i)
		}
	}

	if got := reg.Counter("montecarlo.replications_total").Value(); got != reps {
		t.Errorf("replications_total = %d, want %d", got, reps)
	}
	snap := reg.Snapshot()
	if rps := snap.Gauges["montecarlo.replications_per_second"]; rps <= 0 {
		t.Errorf("replications_per_second = %v, want > 0", rps)
	}
	imbalance, ok := snap.Gauges["montecarlo.shard_imbalance"]
	if !ok {
		t.Error("shard_imbalance gauge missing for a 4-worker run")
	} else if imbalance < 0 || imbalance > 1 {
		t.Errorf("shard_imbalance = %v, want within [0, 1]", imbalance)
	}
	if d := snap.Histograms["montecarlo.run_duration_seconds"]; d.Count != 1 {
		t.Errorf("run_duration observations = %d, want 1", d.Count)
	}
}

// TestRunRecordsShardSpans asserts a traced run opens one child span per
// worker under the provided parent.
func TestRunRecordsShardSpans(t *testing.T) {
	t.Parallel()

	tr := telemetry.NewTrace(telemetry.NewRunID(), "replications")
	cfg := Config{Process: testProcess(t), Versions: 2, Reps: 3 * blockSize, Workers: 3, Seed: 5, TraceSpan: tr.Root()}
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	tr.End()
	if got := len(tr.Snapshot().Root.Children); got != 3 {
		t.Errorf("recorded %d shard spans, want 3", got)
	}
}

// TestCancelledRunRecordsLatency asserts a cancelled run measures the
// latency between cancellation and the workers draining.
func TestCancelledRunRecordsLatency(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := Config{
		Process:  testProcess(t),
		Versions: 2,
		Reps:     10_000_000,
		Workers:  4,
		Seed:     1,
		Progress: func(done, total int) { once.Do(cancel) },
		Metrics:  reg,
	}
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: err = %v, want context.Canceled", err)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["montecarlo.cancellation_latency_seconds"]; h.Count != 1 {
		t.Errorf("cancellation latency observations = %d, want 1", h.Count)
	}
}

// TestRareOptsProgressMonotonic asserts the estimators' progress
// contract: with several workers, reports carry the configured total,
// start at 0, never decrease, include intermediate counts and end at
// total.
func TestRareOptsProgressMonotonic(t *testing.T) {
	t.Parallel()

	fs := testProcess(t).FaultSet()
	const reps = 20_000
	for _, tilt := range []float64{0.3, 0} {
		// Calls are serialised, so the hook appends without a lock; the
		// race detector checks that promise.
		var dones []int
		opts := RareOptions{Progress: func(done, total int) {
			if total != reps {
				t.Errorf("progress total = %d, want %d", total, reps)
			}
			dones = append(dones, done)
		}}
		if _, err := estimateTilted(context.Background(), fs, 2, reps, 1, tilt, opts, 3); err != nil {
			t.Fatalf("tilt %v: %v", tilt, err)
		}
		if len(dones) < 3 || dones[0] != 0 || dones[len(dones)-1] != reps {
			t.Errorf("tilt %v: progress reports %v, want 0, intermediate counts, %d", tilt, dones, reps)
		}
		for i := 1; i < len(dones); i++ {
			if dones[i] <= dones[i-1] {
				t.Fatalf("tilt %v: Done did not increase: %v", tilt, dones)
			}
		}
	}
}

// TestRareOptsInstrumentation: progress and metrics hooks must not
// change the estimates, and the metrics count every replication.
func TestRareOptsInstrumentation(t *testing.T) {
	t.Parallel()

	fs := testProcess(t).FaultSet()
	reg := telemetry.NewRegistry()
	opts := RareOptions{Progress: func(done, total int) {}, Metrics: reg}
	plain, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 10_000, 1, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	metered, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 10_000, 1, 0.3, opts)
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	if plain != metered {
		t.Errorf("instrumented estimate %+v differs from plain %+v", metered, plain)
	}
	if got := reg.Counter("montecarlo.replications_total").Value(); got != 10_000 {
		t.Errorf("replications_total = %d, want 10000", got)
	}
}
