package montecarlo

import (
	"context"
	"math"
	"runtime"
	"sort"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/stats"
	"diversity/internal/system"
)

// opaqueProcess exposes only the wrapped process's Process methods, so
// even a Sparse run of a wrapped independent process develops dense rows.
type opaqueProcess struct {
	inner devsim.Process
}

func (p opaqueProcess) DevelopRows(r *randx.Stream, width int, scratch []uint64) []uint64 {
	return p.inner.DevelopRows(r, width, scratch)
}
func (p opaqueProcess) FaultSet() *faultmodel.FaultSet { return p.inner.FaultSet() }

// closeRel fails unless got is within relative tolerance tol of want.
func closeRel(t *testing.T, label string, want, got, tol float64) {
	t.Helper()
	diff := math.Abs(want - got)
	scale := math.Max(math.Abs(want), math.Abs(got))
	if scale == 0 {
		if diff != 0 {
			t.Errorf("%s: want %v, got %v", label, want, got)
		}
		return
	}
	if diff/scale > tol {
		t.Errorf("%s: want %v, got %v (relative error %.3g > %.3g)", label, want, got, diff/scale, tol)
	}
}

// assertStreamingMatchesBuffered runs the same configuration in both
// aggregation modes and checks that the streaming aggregates describe
// exactly the population the buffered run sampled.
func assertStreamingMatchesBuffered(t *testing.T, cfg Config) {
	t.Helper()
	buffered := cfg
	buffered.Streaming = false
	streaming := cfg
	streaming.Streaming = true

	bres, err := Run(buffered)
	if err != nil {
		t.Fatalf("buffered Run: %v", err)
	}
	sres, err := Run(streaming)
	if err != nil {
		t.Fatalf("streaming Run: %v", err)
	}
	if bres.Streaming || !sres.Streaming {
		t.Fatalf("Streaming flags: buffered %v, streaming %v", bres.Streaming, sres.Streaming)
	}
	if sres.VersionPFD != nil || sres.SystemPFD != nil {
		t.Error("streaming result carries raw samples")
	}
	if sres.VersionAgg == nil || sres.SystemAgg == nil {
		t.Fatal("streaming result missing aggregates")
	}
	if sres.VersionFaultFree != bres.VersionFaultFree || sres.SystemFaultFree != bres.SystemFaultFree {
		t.Errorf("fault-free counts: streaming (%d, %d), buffered (%d, %d)",
			sres.VersionFaultFree, sres.SystemFaultFree, bres.VersionFaultFree, bres.SystemFaultFree)
	}

	for _, pop := range []struct {
		name   string
		sample []float64
		agg    *Agg
	}{
		{"version", bres.VersionPFD, sres.VersionAgg},
		{"system", bres.SystemPFD, sres.SystemAgg},
	} {
		if got, want := pop.agg.N(), int64(len(pop.sample)); got != want {
			t.Errorf("%s agg N = %d, want %d", pop.name, got, want)
		}
		mean, err := stats.Mean(pop.sample)
		if err != nil {
			t.Fatalf("Mean: %v", err)
		}
		variance, err := stats.Variance(pop.sample)
		if err != nil {
			t.Fatalf("Variance: %v", err)
		}
		aggVar, err := pop.agg.Moments.Variance()
		if err != nil {
			t.Fatalf("%s agg Variance: %v", pop.name, err)
		}
		closeRel(t, pop.name+" mean", mean, pop.agg.Moments.Mean(), 1e-12)
		closeRel(t, pop.name+" variance", variance, aggVar, 1e-12)

		sorted := append([]float64(nil), pop.sample...)
		sort.Float64s(sorted)
		if pop.agg.Min != sorted[0] || pop.agg.Max != sorted[len(sorted)-1] {
			t.Errorf("%s agg extremes (%v, %v), sample extremes (%v, %v)",
				pop.name, pop.agg.Min, pop.agg.Max, sorted[0], sorted[len(sorted)-1])
		}
		zeros := int64(0)
		for _, x := range pop.sample {
			if x == 0 {
				zeros++
			}
		}
		if pop.agg.Zeros != zeros {
			t.Errorf("%s agg zeros = %d, sample zeros = %d", pop.name, pop.agg.Zeros, zeros)
		}
	}
}

func TestStreamingMatchesBuffered(t *testing.T) {
	t.Parallel()

	proc := testProcess(t)
	for _, workers := range []int{1, 2, 3, 8} {
		assertStreamingMatchesBuffered(t, Config{
			Process: proc, Versions: 2, Reps: 4000, Seed: 42, Workers: workers,
		})
	}
}

func TestStreamingMatchesBufferedMajority(t *testing.T) {
	t.Parallel()

	assertStreamingMatchesBuffered(t, Config{
		Process: testProcess(t), Versions: 3, Adjudicator: system.MajorityVote{},
		Reps: 3000, Seed: 7, Workers: 4,
	})
}

func TestStreamingMatchesBufferedCorrelated(t *testing.T) {
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
		assertStreamingMatchesBuffered(t, Config{
			Process: proc, Versions: 2, Reps: 3000, Seed: 11, Workers: 3,
		})
	}
}

// TestStreamingFallbackProcess exercises the constant-memory path for
// a process with no sparse sampler under Sparse: the sampled population
// must still match the buffered run exactly.
func TestStreamingFallbackProcess(t *testing.T) {
	t.Parallel()

	proc := opaqueProcess{inner: testProcess(t)}
	if _, ok := devsim.Process(proc).(*devsim.IndependentProcess); ok {
		t.Fatal("opaqueProcess must not be the independent process")
	}
	assertStreamingMatchesBuffered(t, Config{
		Process: proc, Versions: 2, Reps: 3000, Seed: 5, Workers: 2, Sparse: true,
	})
}

// TestAggMergeChunkingInvariant folds one fixed value sequence through
// differently-chunked aggregates and requires the merged moments and
// histogram to agree: the property that makes the per-worker reduction
// independent of how replications were sharded.
func TestAggMergeChunkingInvariant(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(99)
	values := make([]float64, 5000)
	for i := range values {
		switch {
		case r.Float64() < 0.1:
			values[i] = 0
		default:
			// Log-uniform over about six decades.
			values[i] = math.Pow(10, -7+6*r.Float64())
		}
	}

	var whole Agg
	for _, v := range values {
		whole.Observe(v)
	}

	for _, chunks := range []int{2, 3, 7, 16} {
		var merged Agg
		per := (len(values) + chunks - 1) / chunks
		for lo := 0; lo < len(values); lo += per {
			hi := min(lo+per, len(values))
			var part Agg
			for _, v := range values[lo:hi] {
				part.Observe(v)
			}
			merged.Merge(&part)
		}
		if merged.N() != whole.N() || merged.Zeros != whole.Zeros {
			t.Fatalf("%d chunks: counts (%d, %d), want (%d, %d)",
				chunks, merged.N(), merged.Zeros, whole.N(), whole.Zeros)
		}
		if merged.Min != whole.Min || merged.Max != whole.Max {
			t.Errorf("%d chunks: extremes diverged", chunks)
		}
		closeRel(t, "merged mean", whole.Moments.Mean(), merged.Moments.Mean(), 1e-12)
		closeRel(t, "merged popvar", whole.Moments.PopulationVariance(), merged.Moments.PopulationVariance(), 1e-12)
		closeRel(t, "merged skewness", whole.Moments.Skewness(), merged.Moments.Skewness(), 1e-9)
		closeRel(t, "merged kurtosis", whole.Moments.Kurtosis(), merged.Moments.Kurtosis(), 1e-9)
		if merged.Hist != whole.Hist {
			t.Errorf("%d chunks: histograms diverged", chunks)
		}
	}
}

// TestAggQuantilesVsSample checks the histogram quantiles against exact
// sorted-sample quantiles: agreement within the histogram's relative bin
// resolution, and exactness at the tracked extremes.
func TestAggQuantilesVsSample(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(123)
	values := make([]float64, 20000)
	var agg Agg
	for i := range values {
		v := 0.0
		if r.Float64() >= 0.15 {
			v = math.Pow(10, -6+4*r.Float64())
		}
		values[i] = v
		agg.Observe(v)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)

	if v, err := agg.Quantile(0); err != nil || v != sorted[0] {
		t.Errorf("Quantile(0) = (%v, %v), want exact min %v", v, err, sorted[0])
	}
	if v, err := agg.Quantile(1); err != nil || v != sorted[len(sorted)-1] {
		t.Errorf("Quantile(1) = (%v, %v), want exact max %v", v, err, sorted[len(sorted)-1])
	}
	// One histogram bin spans a factor of 10^(1/32) ≈ 1.075; allow two
	// bins of slack for interpolation and rank rounding.
	tol := math.Pow(10, 2.0/histBinsPerDecade) - 1
	for _, p := range []float64{0.05, 0.25, 0.5, 0.9, 0.95, 0.99} {
		exact, err := stats.Quantile(values, p)
		if err != nil {
			t.Fatalf("stats.Quantile(%v): %v", p, err)
		}
		got, err := agg.Quantile(p)
		if err != nil {
			t.Fatalf("agg.Quantile(%v): %v", p, err)
		}
		if exact == 0 {
			if got != 0 {
				t.Errorf("Quantile(%v) = %v, want 0 (rank inside the zero mass)", p, got)
			}
			continue
		}
		closeRel(t, "quantile", exact, got, tol)
	}

	if _, err := agg.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) succeeded, want error")
	}
	var empty Agg
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("empty Quantile succeeded, want error")
	}
	if _, err := empty.Summary(); err == nil {
		t.Error("empty Summary succeeded, want error")
	}
}

// TestStreamingSummaryShape checks the Summary helpers in both modes:
// buffered summaries are exact, streaming ones agree on moments and
// extremes and track the quantiles at histogram resolution.
func TestStreamingSummaryShape(t *testing.T) {
	t.Parallel()

	cfg := Config{Process: testProcess(t), Versions: 2, Reps: 5000, Seed: 3, Workers: 2}
	bres, err := Run(cfg)
	if err != nil {
		t.Fatalf("buffered Run: %v", err)
	}
	cfg.Streaming = true
	sres, err := Run(cfg)
	if err != nil {
		t.Fatalf("streaming Run: %v", err)
	}
	bsum, err := bres.VersionSummary()
	if err != nil {
		t.Fatalf("buffered VersionSummary: %v", err)
	}
	ssum, err := sres.VersionSummary()
	if err != nil {
		t.Fatalf("streaming VersionSummary: %v", err)
	}
	if bsum.N != ssum.N || bsum.Min != ssum.Min || bsum.Max != ssum.Max {
		t.Errorf("summary N/extremes diverged: %+v vs %+v", bsum, ssum)
	}
	// Both modes fold the moments block by block in block order.
	if bsum.Mean != ssum.Mean || bsum.StdDev != ssum.StdDev || bsum.Skewness != ssum.Skewness || bsum.Kurtosis != ssum.Kurtosis {
		t.Errorf("summary moments diverged: %+v vs %+v", bsum, ssum)
	}
	tol := math.Pow(10, 2.0/histBinsPerDecade) - 1
	closeRel(t, "summary median", bsum.Median, ssum.Median, tol)
	closeRel(t, "summary q95", bsum.Q95, ssum.Q95, tol)
	closeRel(t, "summary q99", bsum.Q99, ssum.Q99, tol)
}

// TestStreamingNoPerRepAllocations: the shared tile loop reuses each
// worker's bitset columns, so a run performs a small fixed number of
// allocations however many replications it executes — in either
// aggregation mode. What separates the modes is memory: buffered runs
// keep two float64 samples per replication, streaming runs keep none.
func TestStreamingNoPerRepAllocations(t *testing.T) {
	// Not parallel: allocation counting needs a quiet goroutine.
	const reps = 20000
	cfg := Config{
		Process: testProcess(t), Versions: 2, Reps: reps, Seed: 1,
		Workers: 1, Streaming: true,
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	// Run-level overhead (result, aggregates, goroutine plumbing) is a
	// few dozen allocations; anything proportional to reps blows far
	// past this ceiling.
	if allocs > 100 {
		t.Errorf("streaming run of %d reps allocated %v objects, want run-level overhead only (<= 100)", reps, allocs)
	}

	streamBytes := allocatedBytes(t, cfg)
	cfg.Streaming = false
	buffered := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if buffered > 100 {
		t.Errorf("buffered run of %d reps allocated %v objects, want run-level overhead only (<= 100)", reps, buffered)
	}
	if bufBytes := allocatedBytes(t, cfg); bufBytes < streamBytes+16*reps {
		t.Errorf("buffered run allocated %d bytes, streaming %d: want at least the 16 B/rep sample slices more", bufBytes, streamBytes)
	}
}

// allocatedBytes returns the heap bytes one run of cfg allocates: the
// least of three runs, because MemStats.TotalAlloc counts the whole
// process, and an allocation of the runtime's that lands inside a run's
// window only ever adds bytes.
func allocatedBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestStreamingCancellation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{
		Process: testProcess(t), Versions: 2, Reps: 100000, Seed: 1,
		Streaming: true,
	})
	if err == nil {
		t.Fatal("cancelled streaming run succeeded, want error")
	}
}

// TestStreamingUnknownArch: a voting rule the pool cannot vote over is a
// configuration error on the streaming path too.
func TestStreamingUnknownArch(t *testing.T) {
	t.Parallel()

	_, err := Run(Config{
		Process: testProcess(t), Versions: 2, Reps: 100, Seed: 1,
		Adjudicator: system.KOutOfN{K: 2, N: 3}, Streaming: true,
	})
	if err == nil {
		t.Fatal("streaming run with a 2oo3 vote over 2 versions succeeded, want error")
	}
}
