package montecarlo

import (
	"context"
	"math"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/stats"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// groupedFaultSet builds a universe of n faults in a few equal-p groups —
// the regime the sparse kernel targets.
func groupedFaultSet(t testing.TB, n int) *faultmodel.FaultSet {
	t.Helper()
	faults := make([]faultmodel.Fault, n)
	q := 0.5 / float64(n)
	for i := range faults {
		switch {
		case i < n/2:
			faults[i] = faultmodel.Fault{P: 2.0 / float64(n/2), Q: q}
		case i < 3*n/4:
			faults[i] = faultmodel.Fault{P: 1.5 / float64(n/4), Q: 2 * q}
		default:
			faults[i] = faultmodel.Fault{P: 0.5 / float64(n-3*n/4), Q: q / 2}
		}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

// summaryMoments extracts the PFD summary of one population from a run
// result in either aggregation mode.
func summaryMoments(t *testing.T, res *Result, system bool) stats.Summary {
	t.Helper()
	var sum stats.Summary
	var err error
	if system {
		sum, err = res.SystemSummary()
	} else {
		sum, err = res.VersionSummary()
	}
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	return sum
}

// assertSparseMatchesDense runs the same configuration with the dense and
// sparse kernels and requires the version and system PFD moments to agree
// within 4 sigma of the Monte-Carlo error — the statistical-equivalence
// gate for a kernel that deliberately draws a different variate sequence.
func assertSparseMatchesDense(t *testing.T, cfg Config) {
	t.Helper()
	dense := cfg
	dense.Sparse = false
	sparse := cfg
	sparse.Sparse = true

	dres, err := Run(dense)
	if err != nil {
		t.Fatalf("dense Run: %v", err)
	}
	sres, err := Run(sparse)
	if err != nil {
		t.Fatalf("sparse Run: %v", err)
	}
	if dres.Sparse {
		t.Fatal("dense result claims the sparse kernel ran")
	}
	if !sres.Sparse {
		t.Fatal("sparse result reports a dense fallback for a SparseDeveloper process")
	}
	for _, pop := range []struct {
		name   string
		system bool
	}{{"version", false}, {"system", true}} {
		dSum := summaryMoments(t, dres, pop.system)
		sSum := summaryMoments(t, sres, pop.system)
		dVar := dSum.StdDev * dSum.StdDev
		sVar := sSum.StdDev * sSum.StdDev
		if dSum.N != cfg.Reps || sSum.N != cfg.Reps {
			t.Fatalf("%s: N dense=%d sparse=%d, want %d", pop.name, dSum.N, sSum.N, cfg.Reps)
		}
		// Standard error of the difference of two independent sample means.
		seMean := math.Sqrt(dVar/float64(dSum.N) + sVar/float64(sSum.N))
		if diff := math.Abs(dSum.Mean - sSum.Mean); diff > 4*seMean+1e-15 {
			t.Errorf("%s mean: dense %v vs sparse %v, |diff| %v > 4σ %v",
				pop.name, dSum.Mean, sSum.Mean, diff, 4*seMean)
		}
		// Variances agree within 4σ of the difference, where the sampling
		// error of each sample variance is Var(s²) ≈ σ⁴(κ+2)/n with κ the
		// excess kurtosis. PFD populations here are heavily zero-inflated
		// and right-skewed, so the normal-approximation band σ⁴·8/n would
		// be far too tight.
		if dVar > 0 && sVar > 0 {
			seVar := math.Sqrt(dVar*dVar*(dSum.Kurtosis+2)/float64(dSum.N) +
				sVar*sVar*(sSum.Kurtosis+2)/float64(sSum.N))
			if diff := math.Abs(dVar - sVar); diff > 4*seVar {
				t.Errorf("%s variance: dense %v vs sparse %v, |diff| %v > 4σ %v",
					pop.name, dVar, sVar, diff, 4*seVar)
			}
		}
	}
}

func TestSparseMatchesDenseIndependent(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	for _, streaming := range []bool{false, true} {
		assertSparseMatchesDense(t, Config{
			Process: proc, Versions: 2, Reps: 30000, Seed: 42, Workers: 4,
			Streaming: streaming,
		})
	}
}

func TestSparseMatchesDenseCorrelatedProcesses(t *testing.T) {
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
		assertSparseMatchesDense(t, Config{
			Process: proc, Versions: 2, Reps: 20000, Seed: 11, Workers: 3,
			Streaming: true,
		})
	}
}

func TestSparseMatchesDenseMajority(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 400))
	assertSparseMatchesDense(t, Config{
		Process: proc, Versions: 3, Adjudicator: system.MajorityVote{},
		Reps: 20000, Seed: 7, Workers: 4, Streaming: true,
	})
}

// TestSparseBufferedMatchesSparseStreaming: both aggregation modes of the
// sparse kernel draw the same variates, so for a fixed seed the streaming
// aggregates must describe exactly the buffered population at any worker
// count — the same bitwise contract the dense modes share.
func TestSparseBufferedMatchesSparseStreaming(t *testing.T) {
	t.Parallel()

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	for _, workers := range []int{1, 3} {
		cfg := Config{
			Process: proc, Versions: 2, Reps: 2*blockSize + 500, Seed: 9, Workers: workers,
			Sparse: true,
		}
		bres, err := Run(cfg)
		if err != nil {
			t.Fatalf("sparse buffered Run: %v", err)
		}
		cfg.Streaming = true
		sres, err := Run(cfg)
		if err != nil {
			t.Fatalf("sparse streaming Run: %v", err)
		}
		if bres.SparseSkips != sres.SparseSkips {
			t.Errorf("workers=%d: skip counts diverged: buffered %d, streaming %d",
				workers, bres.SparseSkips, sres.SparseSkips)
		}
		if bres.VersionFaultFree != sres.VersionFaultFree || bres.SystemFaultFree != sres.SystemFaultFree {
			t.Errorf("workers=%d: fault-free counts diverged", workers)
		}
		// Observe the buffered samples in rep order for the order-free
		// parts, fold them block by block for the moments, and compare
		// everything bitwise.
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

// TestSparseFallbackProcess: a process without the SparseDeveloper
// extension has no cheaper sampler than its rows, so a sparse run of it
// develops rows: the run reports Sparse with zero skips and reproduces
// the dense run bit for bit.
func TestSparseFallbackProcess(t *testing.T) {
	t.Parallel()

	cfg := Config{
		Process: opaqueProcess{inner: testProcess(t)}, Versions: 2, Reps: 500, Seed: 5, Workers: 2,
	}
	dense, err := Run(cfg)
	if err != nil {
		t.Fatalf("dense Run: %v", err)
	}
	cfg.Sparse = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sparse Run: %v", err)
	}
	if !res.Sparse {
		t.Error("sparse run does not report the sparse kernel")
	}
	if res.SparseSkips != 0 {
		t.Errorf("row fallback reports %d skips", res.SparseSkips)
	}
	for rep := range dense.SystemPFD {
		if dense.VersionPFD[rep] != res.VersionPFD[rep] || dense.SystemPFD[rep] != res.SystemPFD[rep] {
			t.Fatalf("rep %d: fallback PFDs diverged from the dense run", rep)
		}
	}
}

// TestSparseUnknownArch: a voting rule the pool cannot vote over is a
// configuration error on the sparse path too.
func TestSparseUnknownArch(t *testing.T) {
	t.Parallel()

	_, err := Run(Config{
		Process: testProcess(t), Versions: 2, Reps: 100, Seed: 1,
		Adjudicator: system.MajorityVote{}, Sparse: true,
	})
	if err == nil {
		t.Fatal("sparse run with a majority vote over 2 versions succeeded, want error")
	}
}

// TestSparseLargeUniverse: the scenario the kernel exists for — a
// million-fault universe, k ≈ 5 — must reproduce the analytic mean PFDs
// of equations (1) at replication counts the dense path could not touch.
func TestSparseLargeUniverse(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("million-fault universe in -short mode")
	}

	const n = 1 << 20
	fs := groupedFaultSet(t, n)
	proc := devsim.NewIndependentProcess(fs)
	res, err := Run(Config{
		Process: proc, Versions: 2, Reps: 30000, Seed: 77, Workers: 4,
		Sparse: true, Streaming: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Sparse {
		t.Fatal("sparse kernel did not run")
	}
	if res.SparseSkips == 0 {
		t.Fatal("no geometric skips recorded over a grouped universe")
	}
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD(1): %v", err)
	}
	vsum, err := res.VersionSummary()
	if err != nil {
		t.Fatalf("VersionSummary: %v", err)
	}
	ssum, err := res.SystemSummary()
	if err != nil {
		t.Fatalf("SystemSummary: %v", err)
	}
	vtol := 4 * vsum.StdDev / math.Sqrt(float64(res.Reps))
	if math.Abs(vsum.Mean-mu1) > vtol {
		t.Errorf("version mean %v, analytic %v ± %v", vsum.Mean, mu1, vtol)
	}
	// With n = 2^20 and per-fault p ≈ 4e-6, two independent versions share
	// a fault with probability 1-Π(1-p_i²) ≈ 1.7e-5 per replication, so the
	// whole run expects well under one system-fault event on average — the
	// analytic mean µ2 ≈ 1e-11 is unobservable at any feasible replication
	// count. Assert the event count against its Poisson ceiling instead.
	pHit := 1.0
	for i := 0; i < n; i++ {
		p := fs.Fault(i).P
		pHit *= 1 - p*p
	}
	pHit = 1 - pHit
	expectedHits := float64(res.Reps) * pHit
	faultyReps := res.Reps - res.SystemFaultFree
	if float64(faultyReps) > expectedHits+5*math.Sqrt(expectedHits)+5 {
		t.Errorf("system-fault replications %d, expected ≈ %.2f", faultyReps, expectedHits)
	}
	// Any common fault contributes at most the largest region probability,
	// so the empirical system mean stays far below the version mean.
	if maxQ := 2 * 0.5 / float64(n); ssum.Mean > float64(faultyReps)*maxQ*2/float64(res.Reps)+1e-15 {
		t.Errorf("system mean %v inconsistent with %d fault events", ssum.Mean, faultyReps)
	}
}

// TestSparseNoPerRepAllocations: the sparse streaming path must keep the
// streaming mode's allocation-free hot loop.
func TestSparseNoPerRepAllocations(t *testing.T) {
	// Not parallel: allocation counting needs a quiet goroutine.
	const reps = 20000
	cfg := Config{
		Process:  devsim.NewIndependentProcess(groupedFaultSet(t, 10000)),
		Versions: 2, Reps: reps, Seed: 1, Workers: 1,
		Sparse: true, Streaming: true,
	}
	// Warm up the lazily-built sparse groups outside the counted runs.
	if _, err := Run(cfg); err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs > 100 {
		t.Errorf("sparse streaming run of %d reps allocated %v objects, want run-level overhead only (<= 100)", reps, allocs)
	}
}

func TestSparseMetrics(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	PreRegisterMetrics(reg)
	snap := reg.Snapshot()
	if _, ok := snap.Counters["montecarlo.sparse_skips_total"]; !ok {
		t.Error("sparse_skips_total not pre-registered")
	}
	for _, mode := range []string{"dense", "sparse"} {
		if _, ok := snap.Gauges["montecarlo.replications_per_second."+mode]; !ok {
			t.Errorf("replications_per_second.%s not pre-registered", mode)
		}
	}

	proc := devsim.NewIndependentProcess(groupedFaultSet(t, 1000))
	res, err := Run(Config{
		Process: proc, Versions: 2, Reps: 5000, Seed: 3, Workers: 2,
		Sparse: true, Streaming: true, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["montecarlo.sparse_skips_total"]; got != res.SparseSkips {
		t.Errorf("sparse_skips_total = %d, result reports %d", got, res.SparseSkips)
	}
	if res.SparseSkips == 0 {
		t.Error("grouped sparse run recorded zero skips")
	}
	if snap.Gauges["montecarlo.replications_per_second.sparse"] <= 0 {
		t.Error("replications_per_second.sparse not set after a sparse run")
	}
	if snap.Gauges["montecarlo.replications_per_second.dense"] != 0 {
		t.Error("dense-mode gauge moved during a sparse run")
	}
}

// TestSparseRareEstimators: the sparse rare-event kernels must agree with
// the closed form 1 - Π(1-p_i^m). The tilted check uses a small universe
// of repeated-p faults — with thousands of faults tilted to 0.3 the
// importance weights underflow to zero for the dense kernel too, which
// tests nothing.
func TestSparseRareEstimators(t *testing.T) {
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
	exactSmall := 1.0
	for i := 0; i < sfs.N(); i++ {
		exactSmall *= 1 - math.Pow(sfs.Fault(i).P, float64(m))
	}
	exactSmall = 1 - exactSmall

	est, err := EstimateRareSystemFaultOpts(context.Background(), sfs, m, 40000, 17, 0.3, RareOptions{Sparse: true})
	if err != nil {
		t.Fatalf("sparse tilted estimator: %v", err)
	}
	if diff := math.Abs(est.Probability - exactSmall); diff > 5*est.StdErr+1e-12 {
		t.Errorf("sparse tilted estimate %v, exact %v (|diff| %v > 5·SE %v)",
			est.Probability, exactSmall, diff, 5*est.StdErr)
	}

	// The naive sparse kernel only draws one geometric gap per group until
	// a hit, so it scales to the grouped million-style universe directly.
	fs := groupedFaultSet(t, 2000)
	exact := 1.0
	for i := 0; i < fs.N(); i++ {
		exact *= 1 - math.Pow(fs.Fault(i).P, float64(m))
	}
	exact = 1 - exact
	naive, err := EstimateNaiveSystemFaultOpts(context.Background(), fs, m, 200000, 19, RareOptions{Sparse: true})
	if err != nil {
		t.Fatalf("sparse naive estimator: %v", err)
	}
	if diff := math.Abs(naive.Probability - exact); diff > 5*naive.StdErr+5e-4 {
		t.Errorf("sparse naive estimate %v, exact %v", naive.Probability, exact)
	}

	// Skip draws land in the metrics registry.
	reg := telemetry.NewRegistry()
	if _, err := EstimateRareSystemFaultOpts(context.Background(), sfs, m, 4096, 17, 0.3, RareOptions{Sparse: true, Metrics: reg}); err != nil {
		t.Fatalf("sparse tilted estimator with metrics: %v", err)
	}
	if reg.Snapshot().Counters["montecarlo.sparse_skips_total"] == 0 {
		t.Error("sparse rare estimator recorded no skip draws")
	}
}
