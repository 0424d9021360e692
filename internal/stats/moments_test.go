package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// twoPassMoments computes the reference central moments in two exact
// passes.
func twoPassMoments(xs []float64) (mean, m2, m3, m4 float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	return mean, m2, m3, m4
}

func momentsClose(t *testing.T, label string, want, got float64) {
	t.Helper()
	diff := math.Abs(want - got)
	scale := math.Max(math.Abs(want), math.Abs(got))
	if scale == 0 {
		if diff != 0 {
			t.Errorf("%s: want %v, got %v", label, want, got)
		}
		return
	}
	if diff/scale > 1e-10 {
		t.Errorf("%s: want %v, got %v (relative error %.3g)", label, want, got, diff/scale)
	}
}

func TestMomentsAgainstTwoPass(t *testing.T) {
	t.Parallel()

	// A deliberately skewed sample mixing magnitudes, including ties and
	// zeros, at PFD-like scale.
	xs := []float64{0, 0, 1e-6, 3e-6, 3e-6, 2e-5, 4e-5, 1e-4, 5e-4, 2e-3, 2e-3, 0.01, 0.05}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	if got, want := m.N(), int64(len(xs)); got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	mean, m2, m3, m4 := twoPassMoments(xs)
	n := float64(len(xs))
	momentsClose(t, "mean", mean, m.Mean())
	momentsClose(t, "population variance", m2/n, m.PopulationVariance())
	v, err := m.Variance()
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	momentsClose(t, "sample variance", m2/(n-1), v)
	sd, err := m.StdDev()
	if err != nil {
		t.Fatalf("StdDev: %v", err)
	}
	momentsClose(t, "stddev", math.Sqrt(m2/(n-1)), sd)
	pm2 := m2 / n
	momentsClose(t, "skewness", (m3/n)/math.Pow(pm2, 1.5), m.Skewness())
	momentsClose(t, "kurtosis", (m4/n)/(pm2*pm2)-3, m.Kurtosis())
}

func TestMomentsMergeMatchesSequential(t *testing.T) {
	t.Parallel()

	xs := make([]float64, 0, 1200)
	x := 0.37
	for i := 0; i < 1200; i++ {
		// A deterministic chaotic sequence exercises the accumulator with
		// full-precision values.
		x = 3.9 * x * (1 - x)
		xs = append(xs, x*1e-3)
	}
	var whole Moments
	for _, v := range xs {
		whole.Add(v)
	}
	for _, split := range []int{1, 17, 600, 1199} {
		var a, b Moments
		for _, v := range xs[:split] {
			a.Add(v)
		}
		for _, v := range xs[split:] {
			b.Add(v)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			t.Fatalf("split %d: N = %d, want %d", split, a.N(), whole.N())
		}
		momentsClose(t, "merged mean", whole.Mean(), a.Mean())
		momentsClose(t, "merged popvar", whole.PopulationVariance(), a.PopulationVariance())
		momentsClose(t, "merged skewness", whole.Skewness(), a.Skewness())
		momentsClose(t, "merged kurtosis", whole.Kurtosis(), a.Kurtosis())
	}
}

func TestMomentsMergeEmptySides(t *testing.T) {
	t.Parallel()

	var a, b Moments
	b.Add(2)
	b.Add(4)
	a.Merge(b) // empty receiver adopts the argument
	if a.N() != 2 || a.Mean() != 3 {
		t.Errorf("merge into empty: N=%d mean=%v, want 2 and 3", a.N(), a.Mean())
	}
	before := a
	a.Merge(Moments{}) // empty argument is a no-op
	if a != before {
		t.Error("merging an empty accumulator changed the receiver")
	}
}

func TestMomentsDegenerate(t *testing.T) {
	t.Parallel()

	var m Moments
	if _, err := m.Variance(); err == nil {
		t.Error("empty Variance succeeded, want error")
	}
	if m.Skewness() != 0 || m.Kurtosis() != 0 {
		t.Error("empty skewness/kurtosis non-zero")
	}
	m.Add(5)
	if _, err := m.Variance(); err == nil {
		t.Error("single-observation Variance succeeded, want error")
	}
	m.Add(5)
	m.Add(5)
	// Constant sample: zero variance, moment ratios defined as 0.
	if pv := m.PopulationVariance(); pv != 0 {
		t.Errorf("constant-sample population variance = %v, want 0", pv)
	}
	if m.Skewness() != 0 || m.Kurtosis() != 0 {
		t.Error("constant-sample skewness/kurtosis non-zero")
	}
}

// TestMomentsMatchesVariance ties Moments to the batch Welford pass:
// mean and variance must agree to near machine precision on the same
// data, since Summarize mixes them in one report.
func TestMomentsMatchesVariance(t *testing.T) {
	t.Parallel()

	var m Moments
	xs := make([]float64, 5000)
	x := 0.2
	for i := range xs {
		x = 3.7 * x * (1 - x)
		xs[i] = x
		m.Add(x)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	momentsClose(t, "mean vs Summarize", s.Mean, m.Mean())
	av, err := Variance(xs)
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	mv, err := m.Variance()
	if err != nil {
		t.Fatalf("Moments.Variance: %v", err)
	}
	momentsClose(t, "variance vs Variance", av, mv)
}

func TestMomentsJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Moments
	for i := 0; i < 1000; i++ {
		m.Add(math.Exp(rng.NormFloat64() * 10)) // wide dynamic range
	}
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	var back Moments
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round-trip changed the accumulator:\n got %+v\nwant %+v", back, m)
	}
	// The restored accumulator keeps accumulating identically.
	m.Add(0.5)
	back.Add(0.5)
	if back != m {
		t.Fatalf("post-round-trip Add diverged:\n got %+v\nwant %+v", back, m)
	}
}

func TestMomentsJSONRejectsGarbage(t *testing.T) {
	var m Moments
	if err := json.Unmarshal([]byte(`{"n":"three"}`), &m); err == nil {
		t.Fatal("unmarshal of malformed moments succeeded")
	}
}
