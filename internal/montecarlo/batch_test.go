package montecarlo

import (
	"context"
	"math"
	"sync"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/scenario"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// assertBatchedMatchesDense runs the same configuration unbatched and
// batched and requires the version and system PFD moments to agree
// within 4 sigma of the Monte-Carlo error — the statistical-equivalence
// gate for a kernel that deliberately draws a different variate
// sequence (the same contract the sparse kernel passes).
func assertBatchedMatchesDense(t *testing.T, cfg Config, width int) {
	t.Helper()
	dense := cfg
	dense.BatchWidth = 0
	batched := cfg
	batched.BatchWidth = width

	dres, err := Run(dense)
	if err != nil {
		t.Fatalf("dense Run: %v", err)
	}
	bres, err := Run(batched)
	if err != nil {
		t.Fatalf("batched Run: %v", err)
	}
	if dres.Batched {
		t.Fatal("unbatched result claims the batched kernel ran")
	}
	if !bres.Batched {
		t.Fatal("batched result reports a fallback for a BatchDeveloper process")
	}
	if bres.BatchWidth < 1 || bres.BatchWidth > width {
		t.Fatalf("batched result reports width %d for a request of %d", bres.BatchWidth, width)
	}
	for _, pop := range []struct {
		name   string
		system bool
	}{{"version", false}, {"system", true}} {
		dSum := summaryMoments(t, dres, pop.system)
		bSum := summaryMoments(t, bres, pop.system)
		dVar := dSum.StdDev * dSum.StdDev
		bVar := bSum.StdDev * bSum.StdDev
		if dSum.N != cfg.Reps || bSum.N != cfg.Reps {
			t.Fatalf("%s: N dense=%d batched=%d, want %d", pop.name, dSum.N, bSum.N, cfg.Reps)
		}
		seMean := math.Sqrt(dVar/float64(dSum.N) + bVar/float64(bSum.N))
		if diff := math.Abs(dSum.Mean - bSum.Mean); diff > 4*seMean+1e-15 {
			t.Errorf("%s mean: dense %v vs batched %v, |diff| %v > 4σ %v",
				pop.name, dSum.Mean, bSum.Mean, diff, 4*seMean)
		}
		// Kurtosis-aware variance band; see assertSparseMatchesDense.
		if dVar > 0 && bVar > 0 {
			seVar := math.Sqrt(dVar*dVar*(dSum.Kurtosis+2)/float64(dSum.N) +
				bVar*bVar*(bSum.Kurtosis+2)/float64(bSum.N))
			if diff := math.Abs(dVar - bVar); diff > 4*seVar {
				t.Errorf("%s variance: dense %v vs batched %v, |diff| %v > 4σ %v",
					pop.name, dVar, bVar, diff, 4*seVar)
			}
		}
	}
}

// TestBatchedMatchesDenseCommercialGrade: the acceptance scenario the
// bench headline is measured on.
func TestBatchedMatchesDenseCommercialGrade(t *testing.T) {
	t.Parallel()

	sc, err := scenario.CommercialGrade(1)
	if err != nil {
		t.Fatalf("CommercialGrade: %v", err)
	}
	proc := devsim.NewIndependentProcess(sc.FaultSet)
	for _, streaming := range []bool{false, true} {
		for _, width := range []int{8, 64} {
			assertBatchedMatchesDense(t, Config{
				Process: proc, Versions: 2, Reps: 30000, Seed: 42, Workers: 4,
				Streaming: streaming,
			}, width)
		}
	}
}

// TestBatchedMatchesDenseNVersionPool: the adjudicated pool scenario —
// majority voting over a correlated-regime fault set.
func TestBatchedMatchesDenseNVersionPool(t *testing.T) {
	t.Parallel()

	sc, err := scenario.NVersionPool(1)
	if err != nil {
		t.Fatalf("NVersionPool: %v", err)
	}
	proc := devsim.NewIndependentProcess(sc.FaultSet)
	assertBatchedMatchesDense(t, Config{
		Process: proc, Versions: 3, Adjudicator: system.MajorityVote{},
		Reps: 30000, Seed: 7, Workers: 4, Streaming: true,
	}, 64)
}

// TestBatchedMatchesDenseCorrelatedProcesses: every process with a
// DevelopRows implementation passes the same equivalence gate.
func TestBatchedMatchesDenseCorrelatedProcesses(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.2, Q: 0.05}, {P: 0.4, Q: 0.1}, {P: 0.1, Q: 0.2}, {P: 0.3, Q: 0.02},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	cc, err := devsim.NewCommonCauseProcess(fs, 0.2, 2)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	rs, err := devsim.NewResourceShiftProcess(fs, 0.5)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	tied, err := devsim.NewTiedPairsProcess(fs, [][2]int{{0, 2}})
	if err != nil {
		t.Fatalf("NewTiedPairsProcess: %v", err)
	}
	for _, proc := range []devsim.Process{cc, rs, tied} {
		assertBatchedMatchesDense(t, Config{
			Process: proc, Versions: 2, Reps: 20000, Seed: 11, Workers: 3,
			Streaming: true,
		}, 32)
	}
}

// TestBatchedBufferedMatchesBatchedStreaming: both aggregation modes of
// the batched kernel draw the same variates, so for a fixed seed and
// width the streaming aggregates must describe exactly the buffered
// population at any worker count.
func TestBatchedBufferedMatchesBatchedStreaming(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	for _, workers := range []int{1, 3} {
		cfg := Config{
			Process: proc, Versions: 2, Reps: 2*blockSize + 500, Seed: 9, Workers: workers,
			BatchWidth: 64,
		}
		bres, err := Run(cfg)
		if err != nil {
			t.Fatalf("batched buffered Run: %v", err)
		}
		cfg.Streaming = true
		sres, err := Run(cfg)
		if err != nil {
			t.Fatalf("batched streaming Run: %v", err)
		}
		if !bres.Batched || !sres.Batched {
			t.Fatal("batched kernel did not run")
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

// TestSparseBatchedByteIdenticalToSparse: the sparse kernel takes
// precedence over BatchWidth — geometric gaps are sequential per
// replication, so tiling them bought nothing — and results must be
// bitwise identical to BatchWidth = 0, in both aggregation modes.
func TestSparseBatchedByteIdenticalToSparse(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	for _, streaming := range []bool{false, true} {
		cfg := Config{
			Process: proc, Versions: 2, Reps: 5000, Seed: 13, Workers: 3,
			Sparse: true, Streaming: streaming,
		}
		plain, err := Run(cfg)
		if err != nil {
			t.Fatalf("sparse Run: %v", err)
		}
		cfg.BatchWidth = 64
		batched, err := Run(cfg)
		if err != nil {
			t.Fatalf("sparse batched Run: %v", err)
		}
		if batched.Batched || batched.BatchWidth != 0 || !batched.Sparse {
			t.Fatalf("sparse run with a batch width reports batched=%v width=%d sparse=%v, want the sparse kernel alone",
				batched.Batched, batched.BatchWidth, batched.Sparse)
		}
		if plain.SparseSkips != batched.SparseSkips {
			t.Errorf("skip counts diverged: plain %d, batched %d", plain.SparseSkips, batched.SparseSkips)
		}
		if plain.VersionFaultFree != batched.VersionFaultFree || plain.SystemFaultFree != batched.SystemFaultFree {
			t.Error("fault-free counts diverged")
		}
		if streaming {
			if *plain.VersionAgg != *batched.VersionAgg || *plain.SystemAgg != *batched.SystemAgg {
				t.Error("streaming aggregates not bitwise identical")
			}
			continue
		}
		for rep := range plain.VersionPFD {
			if plain.VersionPFD[rep] != batched.VersionPFD[rep] || plain.SystemPFD[rep] != batched.SystemPFD[rep] {
				t.Fatalf("rep %d: PFDs diverged", rep)
			}
		}
	}
}

// TestBatchWidthOffIsByteIdenticalToDense: widths 0 and 1 must leave
// the existing paths untouched — the fixed-seed golden contract.
func TestBatchWidthOffIsByteIdenticalToDense(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 200))
	base := Config{Process: proc, Versions: 2, Reps: 3000, Seed: 21, Workers: 2}
	want, err := Run(base)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, width := range []int{0, 1} {
		cfg := base
		cfg.BatchWidth = width
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("BatchWidth=%d Run: %v", width, err)
		}
		if got.Batched || got.BatchWidth != 0 {
			t.Fatalf("BatchWidth=%d: batched kernel reported active", width)
		}
		for rep := range want.VersionPFD {
			if want.VersionPFD[rep] != got.VersionPFD[rep] || want.SystemPFD[rep] != got.SystemPFD[rep] {
				t.Fatalf("BatchWidth=%d rep %d: PFDs diverged from dense", width, rep)
			}
		}
	}
}

// TestBatchedFallbackProcess: a process without the BatchDeveloper
// extension runs its dense DevelopInto (and says so) rather than failing.
func TestBatchedFallbackProcess(t *testing.T) {
	t.Parallel()

	proc := opaqueProcess{inner: testProcess(t)}
	res, err := Run(Config{
		Process: proc, Versions: 2, Reps: 500, Seed: 5, Workers: 2, BatchWidth: 64,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Batched || res.BatchWidth != 0 {
		t.Error("fallback run reports the batched kernel as active")
	}
}

// TestBatchWidthValidation: negative widths are configuration errors in
// the harness and both rare-event estimators.
func TestBatchWidthValidation(t *testing.T) {
	t.Parallel()

	if _, err := Run(Config{
		Process: testProcess(t), Versions: 2, Reps: 100, Seed: 1, BatchWidth: -1,
	}); err == nil {
		t.Error("Run accepted a negative batch width")
	}
	fs := groupedFaultSet(t, 10)
	ctx := context.Background()
	if _, err := EstimateRareSystemFaultOpts(ctx, fs, 2, 100, 1, 0.3, RareOptions{BatchWidth: -1}); err == nil {
		t.Error("tilted estimator accepted a negative batch width")
	}
	if _, err := EstimateNaiveSystemFaultOpts(ctx, fs, 2, 100, 1, RareOptions{BatchWidth: -1}); err == nil {
		t.Error("naive estimator accepted a negative batch width")
	}
}

func TestEffectiveBatchWidth(t *testing.T) {
	t.Parallel()

	// Small universes keep the requested width.
	if got := effectiveBatchWidth(256, 2, 40); got != 256 {
		t.Errorf("effectiveBatchWidth(256, 2, 40) = %d, want 256", got)
	}
	// A million-fault universe clamps wide tiles to the arena budget
	// (versions column arenas plus one arena-equivalent of mask rows).
	n := 1 << 20
	words := (n + 63) / 64
	budget := maxBatchArenaWords / (3 * words)
	if got := effectiveBatchWidth(1024, 2, n); got != budget {
		t.Errorf("effectiveBatchWidth(1024, 2, %d) = %d, want %d", n, got, budget)
	}
	// The clamp never drops below one column.
	if got := effectiveBatchWidth(64, 1<<10, 1<<22); got != 1 {
		t.Errorf("effectiveBatchWidth over-budget = %d, want 1", got)
	}
}

// TestBatchedCancellation: the shared chunk loop's context check still
// cancels a batched run promptly.
func TestBatchedCancellation(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := RunContext(ctx, Config{
		Process: proc, Versions: 2, Reps: 50_000_000, Workers: 2, Seed: 3,
		Streaming: true, BatchWidth: 64,
		Progress: func(done, total int) { once.Do(cancel) },
	})
	if err == nil {
		t.Fatal("cancelled batched run completed")
	}
}

// TestBatchedNoPerRepAllocations: the batched streaming path must keep
// the allocation-free hot loop — the arena is built once per worker at
// run start.
func TestBatchedNoPerRepAllocations(t *testing.T) {
	// Not parallel: allocation counting needs a quiet goroutine.
	const reps = 20000
	cfg := Config{
		Process:  devsim.NewIndependentProcess(groupedFaultSet(t, 1000)),
		Versions: 2, Reps: reps, Seed: 1, Workers: 1,
		Streaming: true, BatchWidth: 64,
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
	// The per-run overhead includes the one-time column arena:
	// versions × width bitsets at a few objects each, built once per
	// worker at run start. Nothing may scale with reps — one allocation
	// per replication would cost 20000 here.
	if allocs > 1000 {
		t.Errorf("batched streaming run of %d reps allocated %v objects, want run-level overhead only (<= 1000)", reps, allocs)
	}
}

func TestBatchedMetrics(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	PreRegisterMetrics(reg)
	snap := reg.Snapshot()
	for _, mode := range []string{"dense", "sparse", "batched"} {
		if _, ok := snap.Gauges["montecarlo.replications_per_second."+mode]; !ok {
			t.Errorf("replications_per_second.%s not pre-registered", mode)
		}
	}
	if _, ok := snap.Gauges["montecarlo.batch_width"]; !ok {
		t.Error("batch_width not pre-registered")
	}

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	res, err := Run(Config{
		Process: proc, Versions: 2, Reps: 5000, Seed: 3, Workers: 2,
		Streaming: true, BatchWidth: 64, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Batched {
		t.Fatal("batched kernel did not run")
	}
	snap = reg.Snapshot()
	if snap.Gauges["montecarlo.replications_per_second.batched"] <= 0 {
		t.Error("replications_per_second.batched not set after a batched run")
	}
	if got := snap.Gauges["montecarlo.batch_width"]; got != float64(res.BatchWidth) {
		t.Errorf("batch_width = %v, result reports %d", got, res.BatchWidth)
	}
	if snap.Gauges["montecarlo.replications_per_second.dense"] != 0 {
		t.Error("dense-mode gauge moved during a batched run")
	}
	if snap.Gauges["montecarlo.replications_per_second.sparse"] != 0 {
		t.Error("sparse-mode gauge moved during a batched run")
	}

	// The width gauge describes the latest run: a dense job after the
	// batched one must read 0, not the stale 64.
	if _, err := Run(Config{
		Process: proc, Versions: 2, Reps: 1000, Seed: 3, Workers: 2,
		Streaming: true, Metrics: reg,
	}); err != nil {
		t.Fatalf("dense Run: %v", err)
	}
	if got := reg.Snapshot().Gauges["montecarlo.batch_width"]; got != 0 {
		t.Errorf("batch_width = %v after a dense run, want 0", got)
	}
}

// TestBatchedRareEstimators: the batched rare-event loops must agree
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
	est, err := EstimateRareSystemFaultOpts(ctx, sfs, m, 40000, 17, 0.3, RareOptions{BatchWidth: 64})
	if err != nil {
		t.Fatalf("batched tilted estimator: %v", err)
	}
	if diff := math.Abs(est.Probability - exact); diff > 5*est.StdErr+1e-12 {
		t.Errorf("batched tilted estimate %v, exact %v (|diff| %v > 5·SE %v)",
			est.Probability, exact, diff, 5*est.StdErr)
	}
	if est.HitFraction <= 0 {
		t.Error("batched tilted estimator recorded no hits under the tilted measure")
	}

	naive, err := EstimateNaiveSystemFaultOpts(ctx, groupedFaultSet(t, 100), m, 200000, 19, RareOptions{BatchWidth: 64})
	if err != nil {
		t.Fatalf("batched naive estimator: %v", err)
	}
	fs := groupedFaultSet(t, 100)
	exactNaive := 1.0
	for i := 0; i < fs.N(); i++ {
		exactNaive *= 1 - math.Pow(fs.Fault(i).P, float64(m))
	}
	exactNaive = 1 - exactNaive
	if diff := math.Abs(naive.Probability - exactNaive); diff > 5*naive.StdErr+5e-4 {
		t.Errorf("batched naive estimate %v, exact %v", naive.Probability, exactNaive)
	}

	// Sparse wins when both kernels are requested: fixed-seed output must
	// equal the sparse-only run bit for bit.
	sp, err := EstimateRareSystemFaultOpts(ctx, sfs, m, 4096, 17, 0.3, RareOptions{Sparse: true})
	if err != nil {
		t.Fatalf("sparse tilted estimator: %v", err)
	}
	both, err := EstimateRareSystemFaultOpts(ctx, sfs, m, 4096, 17, 0.3, RareOptions{Sparse: true, BatchWidth: 64})
	if err != nil {
		t.Fatalf("sparse+batched tilted estimator: %v", err)
	}
	if sp != both {
		t.Errorf("sparse+batched rare estimate %+v differs from sparse %+v", both, sp)
	}
}
