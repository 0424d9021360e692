package devsim

import (
	"math"
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

func mustFaultSet(t *testing.T, faults []faultmodel.Fault) *faultmodel.FaultSet {
	t.Helper()
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

func TestIndependentProcessMarginals(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.1, Q: 0.01},
		{P: 0.5, Q: 0.02},
		{P: 0.9, Q: 0.03},
	})
	proc := NewIndependentProcess(fs)
	if proc.FaultSet() != fs {
		t.Error("FaultSet did not return the constructor argument")
	}
	r := randx.NewStream(7)
	const reps = 100000
	counts := make([]int, fs.N())
	for rep := 0; rep < reps; rep++ {
		v := proc.Develop(r)
		for i := 0; i < fs.N(); i++ {
			if v.Has(i) {
				counts[i]++
			}
		}
	}
	for i := 0; i < fs.N(); i++ {
		want := fs.Fault(i).P
		got := float64(counts[i]) / reps
		tol := 5*math.Sqrt(want*(1-want)/reps) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("fault %d present fraction %.5f, want %.5f±%.5f", i, got, want, tol)
		}
	}
}

func TestVersionPFDAndCount(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 1, Q: 0.01},
		{P: 0, Q: 0.02},
		{P: 1, Q: 0.03},
	})
	proc := NewIndependentProcess(fs)
	v := proc.Develop(randx.NewStream(1))
	// p=1 faults always present, p=0 never.
	if !v.Has(0) || v.Has(1) || !v.Has(2) {
		t.Fatalf("deterministic presence wrong: %v %v %v", v.Has(0), v.Has(1), v.Has(2))
	}
	if v.FaultCount() != 2 {
		t.Errorf("FaultCount = %d, want 2", v.FaultCount())
	}
	if math.Abs(v.PFD()-0.04) > 1e-15 {
		t.Errorf("PFD = %v, want 0.04", v.PFD())
	}
	if v.NumPotential() != 3 {
		t.Errorf("NumPotential = %d, want 3", v.NumPotential())
	}
}

func TestCommonPFD(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 1, Q: 0.01},
		{P: 1, Q: 0.02},
		{P: 1, Q: 0.03},
	})
	a := newVersion(fs, []bool{true, true, false})
	b := newVersion(fs, []bool{false, true, true})
	pfd, err := CommonPFD(fs, a, b)
	if err != nil {
		t.Fatalf("CommonPFD: %v", err)
	}
	if math.Abs(pfd-0.02) > 1e-15 {
		t.Errorf("CommonPFD = %v, want 0.02 (only fault 1 shared)", pfd)
	}
}

func TestCommonPFDMismatch(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{{P: 1, Q: 0.01}})
	other := mustFaultSet(t, []faultmodel.Fault{{P: 1, Q: 0.01}, {P: 1, Q: 0.02}})
	a := NewIndependentProcess(fs).Develop(randx.NewStream(1))
	b := NewIndependentProcess(other).Develop(randx.NewStream(2))
	if _, err := CommonPFD(other, a, b); err == nil {
		t.Error("CommonPFD across universes succeeded, want error")
	}
}

// TestIndependentPairMatchesModel: the empirical mean PFD of versions and
// of version pairs must match equations (1) for m = 1 and m = 2.
func TestIndependentPairMatchesModel(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.2, Q: 0.05},
		{P: 0.4, Q: 0.1},
		{P: 0.1, Q: 0.2},
	})
	proc := NewIndependentProcess(fs)
	r := randx.NewStream(42)
	const reps = 200000
	sum1, sum2 := 0.0, 0.0
	for rep := 0; rep < reps; rep++ {
		a := proc.Develop(r)
		b := proc.Develop(r)
		sum1 += a.PFD()
		common, err := CommonPFD(fs, a, b)
		if err != nil {
			t.Fatalf("CommonPFD: %v", err)
		}
		sum2 += common
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
		t.Errorf("empirical µ1 = %.5f, model %.5f", got, mu1)
	}
	if got := sum2 / reps; math.Abs(got-mu2) > 0.002 {
		t.Errorf("empirical µ2 = %.5f, model %.5f", got, mu2)
	}
}

func TestCommonCauseProcessPreservesMarginals(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.1, Q: 0.01},
		{P: 0.3, Q: 0.02},
	})
	proc, err := NewCommonCauseProcess(fs, 0.2, 2.5)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	r := randx.NewStream(11)
	const reps = 200000
	counts := make([]int, fs.N())
	for rep := 0; rep < reps; rep++ {
		v := proc.Develop(r)
		for i := 0; i < fs.N(); i++ {
			if v.Has(i) {
				counts[i]++
			}
		}
	}
	for i := 0; i < fs.N(); i++ {
		want := fs.Fault(i).P
		got := float64(counts[i]) / reps
		if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/reps)+1e-9 {
			t.Errorf("fault %d marginal %.5f, want %.5f", i, got, want)
		}
	}
}

func TestCommonCauseProcessPositiveCorrelation(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.1, Q: 0.01},
		{P: 0.1, Q: 0.02},
	})
	proc, err := NewCommonCauseProcess(fs, 0.3, 3)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	r := randx.NewStream(13)
	const reps = 200000
	n11, n1, n2 := 0, 0, 0
	for rep := 0; rep < reps; rep++ {
		v := proc.Develop(r)
		if v.Has(0) {
			n1++
		}
		if v.Has(1) {
			n2++
		}
		if v.Has(0) && v.Has(1) {
			n11++
		}
	}
	joint := float64(n11) / reps
	indep := float64(n1) / reps * float64(n2) / reps
	if joint <= indep {
		t.Errorf("P(both) = %.5f not above P(a)P(b) = %.5f; no positive correlation induced", joint, indep)
	}
}

func TestCommonCauseProcessValidation(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{{P: 0.5, Q: 0.01}})
	if _, err := NewCommonCauseProcess(fs, -0.1, 2); err == nil {
		t.Error("negative rho succeeded, want error")
	}
	if _, err := NewCommonCauseProcess(fs, 1, 2); err == nil {
		t.Error("rho=1 succeeded, want error")
	}
	if _, err := NewCommonCauseProcess(fs, 0.5, 0.5); err == nil {
		t.Error("boost < 1 succeeded, want error")
	}
	// rho=0.9, boost=2: hi=1, lo=(0.5-0.9)/0.1 < 0 -> must fail.
	if _, err := NewCommonCauseProcess(fs, 0.9, 2); err == nil {
		t.Error("marginal-violating parameters succeeded, want error")
	}
	// rho = 0 degenerates to independence and must be accepted.
	if _, err := NewCommonCauseProcess(fs, 0, 5); err != nil {
		t.Errorf("rho=0: %v", err)
	}
}

func TestResourceShiftProcessPreservesMarginals(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.2, Q: 0.01},
		{P: 0.2, Q: 0.01},
		{P: 0.3, Q: 0.01},
		{P: 0.3, Q: 0.01},
	})
	proc, err := NewResourceShiftProcess(fs, 0.5)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	if proc.FaultSet() != fs {
		t.Error("FaultSet did not return the constructor argument")
	}
	r := randx.NewStream(17)
	const reps = 200000
	counts := make([]int, fs.N())
	for rep := 0; rep < reps; rep++ {
		v := proc.Develop(r)
		for i := 0; i < fs.N(); i++ {
			if v.Has(i) {
				counts[i]++
			}
		}
	}
	for i := 0; i < fs.N(); i++ {
		want := fs.Fault(i).P
		got := float64(counts[i]) / reps
		if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/reps)+1e-9 {
			t.Errorf("fault %d marginal %.5f, want %.5f", i, got, want)
		}
	}
}

func TestResourceShiftProcessNegativeCorrelationAcrossHalves(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.3, Q: 0.01},
		{P: 0.3, Q: 0.01},
	})
	proc, err := NewResourceShiftProcess(fs, 0.9)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	r := randx.NewStream(19)
	const reps = 200000
	n11, n1, n2 := 0, 0, 0
	for rep := 0; rep < reps; rep++ {
		v := proc.Develop(r)
		if v.Has(0) {
			n1++
		}
		if v.Has(1) {
			n2++
		}
		if v.Has(0) && v.Has(1) {
			n11++
		}
	}
	joint := float64(n11) / reps
	indep := float64(n1) / reps * float64(n2) / reps
	if joint >= indep {
		t.Errorf("P(both) = %.5f not below P(a)P(b) = %.5f; no negative correlation induced", joint, indep)
	}
}

func TestResourceShiftProcessValidation(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{{P: 0.6, Q: 0.01}})
	if _, err := NewResourceShiftProcess(fs, 0.8); err == nil {
		t.Error("shift overflowing probability succeeded, want error")
	}
	if _, err := NewResourceShiftProcess(fs, -0.1); err == nil {
		t.Error("negative shift succeeded, want error")
	}
	if _, err := NewResourceShiftProcess(fs, math.NaN()); err == nil {
		t.Error("NaN shift succeeded, want error")
	}
}

func TestTiedPairsProcessEquivalentToMergedModel(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.3, Q: 0.05},
		{P: 0.3, Q: 0.07},
		{P: 0.1, Q: 0.02},
	})
	proc, err := NewTiedPairsProcess(fs, [][2]int{{0, 1}})
	if err != nil {
		t.Fatalf("NewTiedPairsProcess: %v", err)
	}
	if proc.FaultSet() != fs {
		t.Error("FaultSet did not return the constructor argument")
	}
	r := randx.NewStream(5)
	const reps = 100000
	together, apart := 0, 0
	sumPFD := 0.0
	for rep := 0; rep < reps; rep++ {
		v := proc.Develop(r)
		if v.Has(0) != v.Has(1) {
			apart++
		} else if v.Has(0) {
			together++
		}
		sumPFD += v.PFD()
	}
	if apart != 0 {
		t.Fatalf("tied faults appeared separately %d times", apart)
	}
	wantTogether := 0.3
	got := float64(together) / reps
	if math.Abs(got-wantTogether) > 0.01 {
		t.Errorf("pair present fraction %v, want %v", got, wantTogether)
	}
	// Mean PFD matches the merged analytic model.
	merged, err := fs.MergeFaults(0, 1, 0.3)
	if err != nil {
		t.Fatalf("MergeFaults: %v", err)
	}
	wantMu, err := merged.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	if math.Abs(sumPFD/reps-wantMu) > 0.002 {
		t.Errorf("tied mean PFD %v, merged model %v", sumPFD/reps, wantMu)
	}
}

func TestNewTiedPairsProcessValidation(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.3, Q: 0.05}, {P: 0.3, Q: 0.07}, {P: 0.1, Q: 0.02},
	})
	if _, err := NewTiedPairsProcess(nil, nil); err == nil {
		t.Error("nil fault set succeeded, want error")
	}
	if _, err := NewTiedPairsProcess(fs, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range pair succeeded, want error")
	}
	if _, err := NewTiedPairsProcess(fs, [][2]int{{1, 1}}); err == nil {
		t.Error("self-pair succeeded, want error")
	}
	if _, err := NewTiedPairsProcess(fs, [][2]int{{0, 1}, {1, 2}}); err == nil {
		t.Error("doubly-tied fault succeeded, want error")
	}
	// No pairs degenerates to the independent process.
	proc, err := NewTiedPairsProcess(fs, nil)
	if err != nil {
		t.Fatalf("NewTiedPairsProcess: %v", err)
	}
	v := proc.Develop(randx.NewStream(1))
	if v.NumPotential() != 3 {
		t.Errorf("NumPotential = %d, want 3", v.NumPotential())
	}
}

// benchFaultProbs returns the per-fault presence probabilities of a
// commercial-grade-sized uniform universe, the shape of the dense
// development inner loop.
func benchFaultProbs(b *testing.B, n int) []float64 {
	b.Helper()
	fs, err := faultmodel.Uniform(n, 0.05, 0.5/float64(n))
	if err != nil {
		b.Fatalf("Uniform: %v", err)
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = fs.Fault(i).P
	}
	return probs
}

// The pair below measures the clamp branches BernoulliValidated removes
// from the per-fault development loop: same draws, same outcomes for the
// construction-validated p used here, minus two comparisons per fault.
func BenchmarkBernoulliClampedLoop(b *testing.B) {
	probs := benchFaultProbs(b, 1024)
	r := randx.NewStream(1)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			if r.Bernoulli(p) {
				hits++
			}
		}
	}
	_ = hits
}

func BenchmarkBernoulliValidatedLoop(b *testing.B) {
	probs := benchFaultProbs(b, 1024)
	r := randx.NewStream(1)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			if r.BernoulliValidated(p) {
				hits++
			}
		}
	}
	_ = hits
}

// TestTiedPairOrderIrrelevant: a pair listed as (6, 5) or as (5, 6)
// develops the same masks from the same seed under Develop and in
// 64-lane rows, and is driven by its smaller index: with p5 = 1 and
// p6 = 0 the pair is always present.
func TestTiedPairOrderIrrelevant(t *testing.T) {
	t.Parallel()

	faults := make([]faultmodel.Fault, 8)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: 0.1 + 0.05*float64(i), Q: 0.01}
	}
	faults[5].P, faults[6].P = 1, 0
	fs := mustFaultSet(t, faults)
	var procs [2]*TiedPairsProcess
	for i, pair := range [][2]int{{6, 5}, {5, 6}} {
		p, err := NewTiedPairsProcess(fs, [][2]int{pair, {0, 3}})
		if err != nil {
			t.Fatalf("NewTiedPairsProcess: %v", err)
		}
		procs[i] = p
	}
	for seed := uint64(1); seed <= 20; seed++ {
		var versions [2]*Version
		var rows [2][]uint64
		for i, p := range procs {
			versions[i] = p.Develop(randx.NewStream(seed))
			rows[i] = append([]uint64(nil), p.DevelopRows(randx.NewStream(seed), 64, make([]uint64, BatchScratchLen(64, fs.N())))...)
		}
		if a, b := versions[0].mask.Word(0), versions[1].mask.Word(0); a != b {
			t.Errorf("seed %d: Develop masks %#x and %#x differ with the pair's order", seed, a, b)
		}
		if !versions[0].Has(5) || !versions[0].Has(6) {
			t.Errorf("seed %d: Develop mask %#x lacks the pair driven by p5 = 1", seed, versions[0].mask.Word(0))
		}
		for f := range rows[0] {
			if rows[0][f] != rows[1][f] {
				t.Errorf("seed %d: DevelopRows row %d is %#x and %#x with the pair's order", seed, f, rows[0][f], rows[1][f])
			}
		}
		if rows[0][5] != ^uint64(0) || rows[0][6] != ^uint64(0) {
			t.Errorf("seed %d: DevelopRows rows 5, 6 = %#x, %#x, want every lane", seed, rows[0][5], rows[0][6])
		}
	}
}
