package devsim

import (
	"math"
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// TestSparseFallbackMatchesDense: the correlated and tied processes have
// no geometric sampler, so a sparse run of one develops the same rows as
// a dense run (TestRunBitPins in the montecarlo package compares the
// runs). None may claim a sparse sampler, or Config.Sparse would leave
// the row kernel for it.
func TestSparseFallbackMatchesDense(t *testing.T) {
	t.Parallel()

	for name, proc := range denseTestProcesses(t, 65) {
		if _, ok := Process(proc).(SparseDeveloper); ok != (name == "independent") {
			t.Errorf("%s: implements SparseDeveloper = %v", name, ok)
		}
	}
}

// TestIndependentDevelopSparseMarginals: the geometric skip kernel must
// reproduce every fault's marginal presence probability, including
// degenerate p = 0 / p = 1 faults and groups too small for skipping.
func TestIndependentDevelopSparseMarginals(t *testing.T) {
	t.Parallel()

	// Two skip-sampled groups, one dense (small) group, and degenerate
	// faults, deliberately interleaved so group indices are non-contiguous.
	faults := make([]faultmodel.Fault, 0, 43)
	for i := 0; i < 20; i++ {
		faults = append(faults, faultmodel.Fault{P: 0.02, Q: 1e-4})
	}
	faults = append(faults, faultmodel.Fault{P: 0, Q: 1e-4}, faultmodel.Fault{P: 1, Q: 1e-4})
	for i := 0; i < 18; i++ {
		faults = append(faults, faultmodel.Fault{P: 0.07, Q: 1e-4})
	}
	faults = append(faults,
		faultmodel.Fault{P: 0.4, Q: 1e-4},
		faultmodel.Fault{P: 0.4, Q: 1e-4},
		faultmodel.Fault{P: 0.6, Q: 1e-4},
	)
	fs := mustFaultSet(t, faults)
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(23)
	mask := NewBitset(fs.N())
	const reps = 200000
	counts := make([]int, fs.N())
	totalSkips := 0
	for rep := 0; rep < reps; rep++ {
		totalSkips += proc.DevelopSparse(r, mask)
		for _, w := range mask.Touched() {
			x := mask.Word(int(w))
			for i := int(w) << 6; x != 0; i++ {
				if x&1 == 1 {
					counts[i]++
				}
				x >>= 1
			}
		}
	}
	if totalSkips == 0 {
		t.Fatal("grouped universe produced no geometric skip draws")
	}
	for i := 0; i < fs.N(); i++ {
		want := fs.Fault(i).P
		got := float64(counts[i]) / reps
		tol := 5*math.Sqrt(want*(1-want)/reps) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("fault %d (p=%v) present fraction %.5f, want %.5f±%.5f", i, want, got, want, tol)
		}
	}
}

// TestIndependentDevelopSparsePairMoments: sparse version pairs must
// reproduce the analytic single-version and common-PFD means (equations
// (1) for m = 1, 2), the same check the dense path passes.
func TestIndependentDevelopSparsePairMoments(t *testing.T) {
	t.Parallel()

	faults := make([]faultmodel.Fault, 120)
	for i := range faults {
		switch {
		case i < 60:
			faults[i] = faultmodel.Fault{P: 0.03, Q: 0.004}
		case i < 110:
			faults[i] = faultmodel.Fault{P: 0.01, Q: 0.002}
		default:
			faults[i] = faultmodel.Fault{P: 0.2, Q: 0.001}
		}
	}
	fs := mustFaultSet(t, faults)
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(37)
	a, b := NewBitset(fs.N()), NewBitset(fs.N())
	const reps = 150000
	sum1, sum2 := 0.0, 0.0
	for rep := 0; rep < reps; rep++ {
		proc.DevelopSparse(r, a)
		proc.DevelopSparse(r, b)
		for _, w := range a.Touched() {
			x := a.Word(int(w))
			common := x & b.Word(int(w))
			for i := int(w) << 6; x != 0; i++ {
				if x&1 == 1 {
					sum1 += fs.Fault(i).Q
				}
				if common&1 == 1 {
					sum2 += fs.Fault(i).Q
				}
				x >>= 1
				common >>= 1
			}
		}
	}
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD(1): %v", err)
	}
	mu2, err := fs.MeanPFD(2)
	if err != nil {
		t.Fatalf("MeanPFD(2): %v", err)
	}
	if got := sum1 / reps; math.Abs(got-mu1) > 0.002 {
		t.Errorf("sparse empirical µ1 = %.5f, model %.5f", got, mu1)
	}
	if got := sum2 / reps; math.Abs(got-mu2) > 0.001 {
		t.Errorf("sparse empirical µ2 = %.5f, model %.5f", got, mu2)
	}
}

// TestDevelopSparseLargeUniverse: a million-fault universe with k ≈ 5
// expected faults per version — infeasible for the dense path at any
// meaningful replication count — must stay exact on its mean fault count.
func TestDevelopSparseLargeUniverse(t *testing.T) {
	t.Parallel()

	const n = 1 << 20
	fs, err := faultmodel.Uniform(n, 5.0/n, 0.5/n)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(41)
	mask := NewBitset(n)
	const reps = 20000
	total := 0
	for rep := 0; rep < reps; rep++ {
		proc.DevelopSparse(r, mask)
		_, count := BitsetPFD(fs, mask)
		total += count
	}
	got := float64(total) / reps
	want := 5.0 * float64(n) / n
	// Fault count is Binomial(n, 5/n): sd ≈ sqrt(5).
	tol := 5 * math.Sqrt(want/reps)
	if math.Abs(got-want) > tol {
		t.Errorf("mean fault count %.4f, want %.4f±%.4f", got, want, tol)
	}
}

func TestCommonPFDMismatchCombos(t *testing.T) {
	t.Parallel()

	small := mustFaultSet(t, []faultmodel.Fault{{P: 0.5, Q: 0.01}})
	big := mustFaultSet(t, []faultmodel.Fault{{P: 0.5, Q: 0.01}, {P: 0.5, Q: 0.02}})
	vSmall := NewIndependentProcess(small).Develop(randx.NewStream(1))
	vBig := NewIndependentProcess(big).Develop(randx.NewStream(1))

	cases := []struct {
		name string
		fs   *faultmodel.FaultSet
		a, b *Version
	}{
		{"first version too small", big, vSmall, vBig},
		{"second version too small", big, vBig, vSmall},
		{"both versions differ from set", small, vBig, vBig},
	}
	for _, tc := range cases {
		if _, err := CommonPFD(tc.fs, tc.a, tc.b); err == nil {
			t.Errorf("CommonPFD %s: succeeded, want error", tc.name)
		}
	}
	// Matching sizes still succeed.
	if _, err := CommonPFD(big, vBig, vBig); err != nil {
		t.Errorf("CommonPFD same universe: %v", err)
	}
}

func BenchmarkDevelopSparseMillionFaults(b *testing.B) {
	const n = 1 << 20
	fs, err := faultmodel.Uniform(n, 5.0/n, 0.5/n)
	if err != nil {
		b.Fatalf("Uniform: %v", err)
	}
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(1)
	mask := NewBitset(n)
	proc.DevelopSparse(r, mask) // build groups outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.DevelopSparse(r, mask)
	}
}

func BenchmarkDevelopSparse100k(b *testing.B) {
	const n = 100_000
	fs, err := faultmodel.Uniform(n, 5.0/n, 0.5/n)
	if err != nil {
		b.Fatalf("Uniform: %v", err)
	}
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(1)
	mask := NewBitset(n)
	proc.DevelopSparse(r, mask)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.DevelopSparse(r, mask)
	}
}

// TestIndependentDevelopSparseFragmentedGroups: a p value recurring in
// non-adjacent index runs makes its group non-contiguous, which switches
// the kernel from offset arithmetic to a materialised index slice. The
// marginals must survive that switch for both the skip-sampled and the
// dense (small-group) variants, and bits must never land outside the
// group's actual fault indices.
func TestIndependentDevelopSparseFragmentedGroups(t *testing.T) {
	t.Parallel()

	// 0.05 in three runs split by another group and a p = 0 hole (30
	// faults, skip-sampled); 0.5 in two singleton runs (dense fallback).
	faults := make([]faultmodel.Fault, 0, 48)
	for i := 0; i < 10; i++ {
		faults = append(faults, faultmodel.Fault{P: 0.05, Q: 1e-3})
	}
	faults = append(faults, faultmodel.Fault{P: 0.5, Q: 1e-3})
	for i := 0; i < 10; i++ {
		faults = append(faults, faultmodel.Fault{P: 0.05, Q: 1e-3})
	}
	faults = append(faults, faultmodel.Fault{P: 0, Q: 1e-3})
	for i := 0; i < 10; i++ {
		faults = append(faults, faultmodel.Fault{P: 0.05, Q: 1e-3})
	}
	faults = append(faults, faultmodel.Fault{P: 0.5, Q: 1e-3})
	fs := mustFaultSet(t, faults)
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(77)
	mask := NewBitset(fs.N())
	const reps = 200000
	counts := make([]int, fs.N())
	totalSkips := 0
	for rep := 0; rep < reps; rep++ {
		totalSkips += proc.DevelopSparse(r, mask)
		for _, w := range mask.Touched() {
			x := mask.Word(int(w))
			for i := int(w) << 6; x != 0; i++ {
				if x&1 == 1 {
					counts[i]++
				}
				x >>= 1
			}
		}
	}
	if totalSkips == 0 {
		t.Fatal("fragmented grouped universe produced no geometric skip draws")
	}
	for i := 0; i < fs.N(); i++ {
		want := fs.Fault(i).P
		got := float64(counts[i]) / reps
		tol := 5*math.Sqrt(want*(1-want)/reps) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("fault %d (p=%v) present fraction %.5f, want %.5f±%.5f", i, want, got, want, tol)
		}
	}
}
