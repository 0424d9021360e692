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
// runs). The Monte-Carlo harness finds the sparse sampler by the
// process's type, so only the independent process may be an
// *IndependentProcess.
func TestSparseFallbackMatchesDense(t *testing.T) {
	t.Parallel()

	for name, proc := range denseTestProcesses(t, 65) {
		if _, ok := Process(proc).(*IndependentProcess); ok != (name == "independent") {
			t.Errorf("%s: is an *IndependentProcess = %v", name, ok)
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

// TestDevelopSparseRowsMarginals: every lane of a sparse tile must
// reproduce every fault's presence probability, at full and partial
// widths, over a universe whose groups are fragmented, too small to
// skip-sample, or split by p = 0 holes. Every tile's rows must be
// strictly ascending in fault, nonzero, and clear past the width.
func TestDevelopSparseRowsMarginals(t *testing.T) {
	t.Parallel()

	faults := make([]faultmodel.Fault, 0, 40)
	for run := 0; run < 4; run++ {
		for i := 0; i < 6; i++ {
			faults = append(faults, faultmodel.Fault{P: 0.03, Q: 1e-4})
		}
		faults = append(faults, faultmodel.Fault{P: []float64{0, 0.5, 1, 0.2}[run], Q: 1e-4})
		faults = append(faults, faultmodel.Fault{P: 0.2, Q: 1e-4})
	}
	fs := mustFaultSet(t, faults)
	// The second process splits its equal-p sets into groups of at most
	// five, as a 32-bit platform splits groups past maxGroupSize.
	split := NewIndependentProcess(fs)
	split.sparseOnce.Do(func() { split.groups, split.ordered = groupFaults(fs, 5) })
	r := randx.NewStream(29)
	for _, proc := range []*IndependentProcess{NewIndependentProcess(fs), split} {
		for _, width := range []int{1, 17, 64} {
			tiles := 200000 / width
			counts := make([][]int, fs.N())
			for i := range counts {
				counts[i] = make([]int, width)
			}
			var rows []SparseRow
			for tile := 0; tile < tiles; tile++ {
				rows, _ = proc.DevelopSparseRows(r, width, rows)
				for k, row := range rows {
					if row.Lanes == 0 || (width < 64 && row.Lanes>>uint(width) != 0) {
						t.Fatalf("width %d: fault %d has lanes %#x", width, row.Fault, row.Lanes)
					}
					if k > 0 && rows[k-1].Fault >= row.Fault {
						t.Fatalf("width %d: fault %d follows fault %d", width, row.Fault, rows[k-1].Fault)
					}
					for j := 0; j < width; j++ {
						counts[row.Fault][j] += int(row.Lanes >> uint(j) & 1)
					}
				}
			}
			for i := range counts {
				want := fs.Fault(i).P
				tol := 5*math.Sqrt(want*(1-want)/float64(tiles)) + 1e-9
				for j, c := range counts[i] {
					if got := float64(c) / float64(tiles); math.Abs(got-want) > tol {
						t.Errorf("width %d fault %d (p=%v) lane %d: present fraction %.5f, want %.5f±%.5f",
							width, i, want, j, got, want, tol)
					}
				}
			}
		}
	}
}

// TestGroupFaultsCap: no group exceeds the size cap. An equal-p set past
// it, contiguous or fragmented, splits into groups that still hold every
// fault of positive p exactly once, in ascending order within each
// group, and the groups are ordered (visited in turn, they visit the
// faults in ascending order) unless some group is fragmented.
func TestGroupFaultsCap(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		ps      []float64
		maxSize int
		groups  int
		ordered bool
	}{
		{[]float64{.1, .1, .1, .1, .1, .1, .1, .2, .2, .2, .2, .2}, 3, 5, true},
		{[]float64{.1, .1, .1, .1, .1, .1, .1, 0, .1, .1, .1, .2, .2, .2, .2, .2}, 4, 5, false},
		{[]float64{.1, .2, .1, .2, .1, .2, .1}, 2, 4, false},
		{[]float64{.1, .1, .1, .1, .1, .1, .1, .2, .2, .2, .2, .2}, maxGroupSize, 2, true},
	} {
		faults := make([]faultmodel.Fault, len(tc.ps))
		for i, p := range tc.ps {
			faults[i] = faultmodel.Fault{P: p, Q: 1e-3}
		}
		groups, ordered := groupFaults(mustFaultSet(t, faults), tc.maxSize)
		if len(groups) != tc.groups || ordered != tc.ordered {
			t.Errorf("%v cap %d: %d groups, ordered %v; want %d, %v",
				tc.ps, tc.maxSize, len(groups), ordered, tc.groups, tc.ordered)
		}
		seen := make([]int, len(tc.ps))
		last := int32(-1)
		ascending := true
		for _, g := range groups {
			if g.size > tc.maxSize || g.indices != nil && len(g.indices) != g.size {
				t.Errorf("%v cap %d: group of size %d, indices %v", tc.ps, tc.maxSize, g.size, g.indices)
			}
			for pos := 0; pos < g.size; pos++ {
				f := g.fault(pos)
				seen[f]++
				if tc.ps[f] != g.sampler.P() || pos > 0 && g.fault(pos-1) >= f {
					t.Errorf("%v cap %d: fault %d at position %d of a group of p = %v",
						tc.ps, tc.maxSize, f, pos, g.sampler.P())
				}
				ascending = ascending && f > last
				last = f
			}
		}
		if ordered && !ascending {
			t.Errorf("%v cap %d: ordered, but the groups visit faults out of order", tc.ps, tc.maxSize)
		}
		for i, n := range seen {
			if want := map[bool]int{true: 1, false: 0}[tc.ps[i] > 0]; n != want {
				t.Errorf("%v cap %d: fault %d in %d groups, want %d", tc.ps, tc.maxSize, i, n, want)
			}
		}
	}
}

// TestDevelopSparseIsOneLaneRows: DevelopSparse is lane 0 of a one-lane
// DevelopSparseRows, draw for draw, with the same skip count.
func TestDevelopSparseIsOneLaneRows(t *testing.T) {
	t.Parallel()

	fs := groupedSparseUniverse(t)
	proc := NewIndependentProcess(fs)
	mask := NewBitset(fs.N())
	for seed := uint64(1); seed <= 200; seed++ {
		skips := proc.DevelopSparse(randx.NewStream(seed), mask)
		rows, wantSkips := proc.DevelopSparseRows(randx.NewStream(seed), 1, nil)
		if skips != wantSkips {
			t.Fatalf("seed %d: %d skips, one-lane rows drew %d", seed, skips, wantSkips)
		}
		want := NewBitset(fs.N())
		for _, row := range rows {
			want.Set(int(row.Fault))
		}
		for w := 0; w < mask.NumWords(); w++ {
			if mask.Word(w) != want.Word(w) {
				t.Fatalf("seed %d word %d: mask %#x, one-lane rows %#x", seed, w, mask.Word(w), want.Word(w))
			}
		}
	}
}

// TestDevelopSparseRowsNoAllocs: with the previous tile's rows passed
// back in, a sparse tile allocates nothing, even over fragmented groups,
// whose rows are sorted in place.
func TestDevelopSparseRowsNoAllocs(t *testing.T) {
	fs := groupedSparseUniverse(t)
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(3)
	rows := make([]SparseRow, 0, fs.N())
	if allocs := testing.AllocsPerRun(200, func() { rows, _ = proc.DevelopSparseRows(r, 64, rows) }); allocs != 0 {
		t.Errorf("DevelopSparseRows allocated %v objects per tile, want 0", allocs)
	}
}

// TestDevelopSparseRowsTinyP: a group whose p is so small that its
// geometric gaps pass the int range draws nothing, at every width, and
// the one-lane form sets nothing; neither may wrap a gap into a negative
// position (which on 386 panicked in DevelopSparse).
func TestDevelopSparseRowsTinyP(t *testing.T) {
	t.Parallel()

	faults := make([]faultmodel.Fault, 8)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: 1e-12, Q: 1e-3}
	}
	fs := mustFaultSet(t, faults)
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(5)
	mask := NewBitset(fs.N())
	for i := 0; i < 1000; i++ {
		for _, width := range []int{1, 64} {
			if rows, _ := proc.DevelopSparseRows(r, width, nil); len(rows) != 0 {
				t.Fatalf("width %d: rows %v from faults of p = 1e-12", width, rows)
			}
		}
		proc.DevelopSparse(r, mask)
		if len(mask.Touched()) != 0 {
			t.Fatal("DevelopSparse set a fault of p = 1e-12")
		}
	}
}

// groupedSparseUniverse is a 200-fault universe of interleaved equal-p
// groups in several runs each: three skip-sampled groups and two groups
// of two faults, too small to skip-sample.
func groupedSparseUniverse(t *testing.T) *faultmodel.FaultSet {
	t.Helper()
	faults := make([]faultmodel.Fault, 200)
	for i := range faults {
		switch {
		case i%50 < 40:
			faults[i] = faultmodel.Fault{P: 0.01, Q: 1e-3}
		case i%50 < 48:
			faults[i] = faultmodel.Fault{P: 0.04, Q: 1e-3}
		case i < 100:
			faults[i] = faultmodel.Fault{P: 0.3 + 0.1*float64(i%2), Q: 1e-3}
		default:
			faults[i] = faultmodel.Fault{P: 0.5, Q: 1e-3}
		}
	}
	return mustFaultSet(t, faults)
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
