package montecarlo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunContextCancelled(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := Config{
		Process:  testProcess(t),
		Versions: 2,
		Reps:     10_000_000,
		Workers:  4,
		Seed:     1,
		// Cancel from the very first progress report; workers must then
		// stop at their next chunk boundary instead of finishing the run.
		Progress: func(done, total int) { once.Do(cancel) },
	}
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext under cancelled context: err = %v, want context.Canceled", err)
	}
	if elapsed > 15*time.Second {
		t.Errorf("cancelled run took %v; cancellation is not prompt", elapsed)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Process: testProcess(t), Versions: 2, Reps: 100, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext: err = %v, want context.Canceled", err)
	}
}

func TestRunProgressReachesTotal(t *testing.T) {
	t.Parallel()

	const reps = 20_000
	var last atomic.Int64
	var calls atomic.Int64
	cfg := Config{
		Process:  testProcess(t),
		Versions: 2,
		Reps:     reps,
		Workers:  3,
		Seed:     7,
		Progress: func(done, total int) {
			calls.Add(1)
			if total != reps {
				t.Errorf("progress total = %d, want %d", total, reps)
			}
			for {
				prev := last.Load()
				if int64(done) <= prev || last.CompareAndSwap(prev, int64(done)) {
					break
				}
			}
		},
	}
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress callback never invoked")
	}
	if got := last.Load(); got != reps {
		t.Errorf("final progress = %d, want %d", got, reps)
	}
}

// TestRunProgressDoesNotPerturbResults: the progress hook must not touch
// the random streams, so hooked and hook-free runs agree bit for bit.
func TestRunProgressDoesNotPerturbResults(t *testing.T) {
	t.Parallel()

	cfg := Config{Process: testProcess(t), Versions: 2, Reps: 5_000, Workers: 4, Seed: 3}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.Progress = func(done, total int) {}
	hooked, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	for i := range plain.SystemPFD {
		if plain.SystemPFD[i] != hooked.SystemPFD[i] || plain.VersionPFD[i] != hooked.VersionPFD[i] {
			t.Fatalf("rep %d: progress hook perturbed the run", i)
		}
	}
}

// TestRareContextCancelled: both estimators stop with context.Canceled
// when the context is cancelled before the first block, and when it is
// cancelled mid-run from the progress hook while other workers hold
// blocks.
func TestRareContextCancelled(t *testing.T) {
	t.Parallel()

	fs := testProcess(t).FaultSet()
	for _, tilt := range []float64{0.3, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := estimateTilted(ctx, fs, 2, 1_000_000, 1, tilt, RareOptions{}, 4); !errors.Is(err, context.Canceled) {
			t.Errorf("tilt %v pre-cancelled: err = %v, want context.Canceled", tilt, err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		opts := RareOptions{Progress: func(done, total int) {
			if done > 0 {
				cancel()
			}
		}}
		_, err := estimateTilted(ctx, fs, 2, 1_000_000, 1, tilt, opts, 4)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("tilt %v cancelled after the first block: err = %v, want context.Canceled", tilt, err)
		}
	}
}
