package montecarlo

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// TestBatchedBufferedMatchesBatchedStreaming: both aggregation modes of
// the row kernel draw the same variates, so for a fixed seed the
// streaming aggregates must describe exactly the buffered population at
// any worker count.
func TestBatchedBufferedMatchesBatchedStreaming(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	for _, workers := range []int{1, 3} {
		cfg := Config{
			Process: proc, Versions: 2, Reps: 2*blockSize + 500, Seed: 9, Workers: workers,
		}
		bres, err := Run(cfg)
		if err != nil {
			t.Fatalf("buffered Run: %v", err)
		}
		cfg.Streaming = true
		sres, err := Run(cfg)
		if err != nil {
			t.Fatalf("streaming Run: %v", err)
		}
		if bres.VersionFaultFree != sres.VersionFaultFree || bres.SystemFaultFree != sres.SystemFaultFree {
			t.Errorf("workers=%d: fault-free counts diverged", workers)
		}
		for _, pop := range []struct {
			name   string
			sample []float64
			agg    *Agg
		}{
			{"version", bres.VersionPFD, sres.VersionAgg},
			{"system", bres.SystemPFD, sres.SystemAgg},
		} {
			var want Agg
			for _, v := range pop.sample {
				want.Observe(v)
			}
			want.Moments = blockMoments(pop.sample)
			if want != *pop.agg {
				t.Errorf("workers=%d %s: streaming aggregate differs from the buffered population", workers, pop.name)
			}
		}
	}
}

// TestBatchedFallbackProcess: a process type this package does not know
// develops through its DevelopRows, so a dense run of it reproduces the
// row reference over block 0's stream bit for bit.
func TestBatchedFallbackProcess(t *testing.T) {
	t.Parallel()

	inner := testProcess(t)
	const reps, seed = 500, 5
	adj := system.OneOutOfN{}
	assertPipelineMatches(t, "opaque", Config{Process: opaqueProcess{inner: inner}}, adj, 2, reps, seed,
		rowReference(t, inner, adj, 2, reps, seed))
}

// TestDenseMemoryGuard: the row kernel holds versions·n mask words per
// worker, so a row-kernel run over more than maxRowWords of them is
// refused. For the independent process the error names Sparse, which
// runs it; a sparse run of a process without a sparse sampler develops
// rows too, so its error names that lack instead of telling the caller
// to set Sparse.
func TestDenseMemoryGuard(t *testing.T) {
	t.Parallel()

	fs := groupedFaultSet(t, 1<<20)
	cfg := Config{
		Process:  devsim.NewIndependentProcess(fs),
		Versions: 40, Reps: 100, Seed: 1, Workers: 1, Streaming: true,
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "set Sparse") {
		t.Fatalf("dense run of 40 versions over 2^20 faults: err = %v, want an error naming Sparse", err)
	}
	cfg.Sparse = true
	if _, err := Run(cfg); err != nil {
		t.Fatalf("sparse run: %v", err)
	}
	cc, err := devsim.NewCommonCauseProcess(fs, 0.2, 2)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	cfg.Process = cc
	_, err = Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "no sparse sampler") || strings.Contains(err.Error(), "set Sparse") {
		t.Fatalf("sparse common-cause run of 40 versions over 2^20 faults: err = %v, want an error naming the missing sparse sampler, not telling the caller to set Sparse", err)
	}
}

// TestBatchedCancellation: the shared block loop's context check
// cancels a row-kernel run promptly.
func TestBatchedCancellation(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := RunContext(ctx, Config{
		Process: proc, Versions: 2, Reps: 50_000_000, Workers: 2, Seed: 3,
		Streaming: true,
		Progress:  func(done, total int) { once.Do(cancel) },
	})
	if err == nil {
		t.Fatal("cancelled run completed")
	}
}

// TestBatchedNoPerRepAllocations: the row kernel's streaming path must
// keep the allocation-free hot loop — the arena is built once per worker
// at run start.
func TestBatchedNoPerRepAllocations(t *testing.T) {
	// Not parallel: allocation counting needs a quiet goroutine.
	const reps = 20000
	cfg := Config{
		Process:  devsim.NewIndependentProcess(groupedFaultSet(t, 1000)),
		Versions: 2, Reps: reps, Seed: 1, Workers: 1,
		Streaming: true,
	}
	// Warm up the lazily-built thresholds outside the counted runs.
	if _, err := Run(cfg); err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	// The per-run overhead includes the one-time row arena, built once
	// per worker at run start. Nothing may scale with reps — one
	// allocation per replication would cost 20000 here.
	if allocs > 1000 {
		t.Errorf("streaming run of %d reps allocated %v objects, want run-level overhead only (<= 1000)", reps, allocs)
	}
}

func TestBatchedMetrics(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	PreRegisterMetrics(reg)
	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	if _, err := Run(Config{
		Process: proc, Versions: 2, Reps: 5000, Seed: 3, Workers: 2,
		Streaming: true, Metrics: reg,
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Gauges["montecarlo.replications_per_second.dense"] <= 0 {
		t.Error("replications_per_second.dense not set after a dense run")
	}
	if snap.Gauges["montecarlo.replications_per_second.sparse"] != 0 {
		t.Error("sparse-mode gauge moved during a dense run")
	}
	for _, gone := range []string{"montecarlo.batch_width", "montecarlo.replications_per_second.batched"} {
		if _, ok := snap.Gauges[gone]; ok {
			t.Errorf("%s is registered; the kernel has no width or batched mode", gone)
		}
	}
}

// TestBatchedRareEstimators: the tiled dense rare-event loops must agree
// with the closed form 1 - Π(1-p_i^m), like the sparse kernels do.
func TestBatchedRareEstimators(t *testing.T) {
	t.Parallel()

	m := 2
	small := make([]faultmodel.Fault, 0, 30)
	for _, p := range []float64{0.003, 0.002, 0.001} {
		for i := 0; i < 10; i++ {
			small = append(small, faultmodel.Fault{P: p, Q: 0.001})
		}
	}
	sfs, err := faultmodel.New(small)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	exact := 1.0
	for i := 0; i < sfs.N(); i++ {
		exact *= 1 - math.Pow(sfs.Fault(i).P, float64(m))
	}
	exact = 1 - exact

	ctx := context.Background()
	est, err := EstimateRareSystemFaultOpts(ctx, sfs, m, 40000, 17, 0.3, RareOptions{})
	if err != nil {
		t.Fatalf("tilted estimator: %v", err)
	}
	if diff := math.Abs(est.Probability - exact); diff > 5*est.StdErr+1e-12 {
		t.Errorf("tilted estimate %v, exact %v (|diff| %v > 5·SE %v)",
			est.Probability, exact, diff, 5*est.StdErr)
	}
	if est.HitFraction <= 0 {
		t.Error("tilted estimator recorded no hits under the tilted measure")
	}

	naive, err := EstimateNaiveSystemFaultOpts(ctx, groupedFaultSet(t, 100), m, 200000, 19, RareOptions{})
	if err != nil {
		t.Fatalf("naive estimator: %v", err)
	}
	fs := groupedFaultSet(t, 100)
	exactNaive := 1.0
	for i := 0; i < fs.N(); i++ {
		exactNaive *= 1 - math.Pow(fs.Fault(i).P, float64(m))
	}
	exactNaive = 1 - exactNaive
	if diff := math.Abs(naive.Probability - exactNaive); diff > 5*naive.StdErr+5e-4 {
		t.Errorf("naive estimate %v, exact %v", naive.Probability, exactNaive)
	}
}
