package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// orderBitsEqual reports whether OrderSummary(xs) holds Summarize(xs)'s
// order statistics with the same bits, and that its moments are zero.
func orderBitsEqual(t *testing.T, label string, xs []float64) {
	t.Helper()
	want, err := Summarize(xs)
	if err != nil {
		t.Fatalf("%s: Summarize: %v", label, err)
	}
	got, err := OrderSummary(xs)
	if err != nil {
		t.Fatalf("%s: OrderSummary: %v", label, err)
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"Min", got.Min, want.Min},
		{"Max", got.Max, want.Max},
		{"Median", got.Median, want.Median},
		{"Q05", got.Q05, want.Q05},
		{"Q95", got.Q95, want.Q95},
		{"Q99", got.Q99, want.Q99},
	}
	for _, p := range pairs {
		if math.Float64bits(p.got) != math.Float64bits(p.want) {
			t.Errorf("%s: %s = %v (%#x), want %v (%#x)", label, p.name, p.got, math.Float64bits(p.got), p.want, math.Float64bits(p.want))
		}
	}
	if got.N != len(xs) || got.Mean != 0 || got.StdDev != 0 || got.Skewness != 0 || got.Kurtosis != 0 {
		t.Errorf("%s: N or moments = %+v, want N %d and zero moments", label, got, len(xs))
	}
}

// withZeros returns n values of which a share zeros is exactly +0 and
// the rest are positive, spread over many decades as PFDs are.
func withZeros(r *rand.Rand, n int, zeros float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if r.Float64() >= zeros {
			xs[i] = math.Exp(-30 * r.Float64())
		}
	}
	return xs
}

// TestOrderSummaryMatchesSummarize: sorting only the values that are not
// +0 and reading order statistics around the run of +0s gives the bits
// of the full sort, at every sample size around the quantile positions
// and for samples with and without zeros, ties, denormal-scale values,
// NaNs and negatives.
func TestOrderSummaryMatchesSummarize(t *testing.T) {
	t.Parallel()

	r := rand.New(rand.NewSource(7))
	cases := map[string][]float64{
		"n=1":             {3e-5},
		"n=1 zero":        {0},
		"n=2":             {2e-3, 0},
		"n=2 no zero":     {2e-3, 1e-3},
		"all zero":        make([]float64, 101),
		"no zeros":        withZeros(r, 1000, 0),
		"ties":            {1e-4, 0, 1e-4, 0, 1e-4, 1e-4, 0, 2e-4, 2e-4, 1e-4},
		"tiny":            {1e-300, 0, 0, 5e-324, 1e-300, 0, 2e-300},
		"nan":             {0, math.NaN(), 1e-3, 0, 0, math.NaN(), 2e-3},
		"negatives":       {0, -1e-3, 4e-3, 0, -2, 1, 0, -1e-300, 0},
		"negatives+nan":   {math.NaN(), 0, -1, -1, 3, 0, math.Inf(-1), math.Inf(1), 0, 2},
		"92% zeros":       withZeros(r, 20000, 0.92),
		"99.9% zeros":     withZeros(r, 20000, 0.999),
		"one nonzero":     append(make([]float64, 4999), 7e-6),
		"leading nonzero": append([]float64{7e-6}, make([]float64, 4999)...),
	}
	for n := 1; n <= 205; n++ {
		cases[fmt.Sprintf("70%% zeros/n=%d", n)] = withZeros(r, n, 0.7)
	}
	for label, xs := range cases {
		orig := append([]float64(nil), xs...)
		orderBitsEqual(t, label, xs)
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: OrderSummary modified its input", label)
			}
		}
	}
	if _, err := OrderSummary(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("OrderSummary(nil) error = %v, want ErrEmptySample", err)
	}
}

// FuzzOrderSummary checks OrderSummary against Summarize's full sort bit
// for bit over non-negative samples. Each 8 bytes of input are one
// value's bits with the sign cleared; NaNs become +0, and zero bytes
// make +0s, so the fuzzer reaches zero-heavy samples easily.
func FuzzOrderSummary(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 64))
	seed := make([]byte, 8*40)
	for i := 0; i < len(seed); i += 8 {
		if i%24 == 0 {
			binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(float64(i)*1e-7))
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			if math.IsNaN(x) {
				x = 0
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			t.Skip()
		}
		orderBitsEqual(t, "fuzz", xs)
	})
}

// momentBits returns the count and the bits of every float of m.
func momentBits(m Moments) [5]uint64 {
	return [5]uint64{uint64(m.n), math.Float64bits(m.mean), math.Float64bits(m.m2), math.Float64bits(m.m3), math.Float64bits(m.m4)}
}

// TestPairMomentsMatchesAdd: folding two samples in one loop gives each
// accumulator the bits of its own Add loop.
func TestPairMomentsMatchesAdd(t *testing.T) {
	t.Parallel()

	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 2047, 2048, 5000} {
		xs, ys := withZeros(r, n, 0.926), withZeros(r, n, 0.999)
		for i := range ys {
			if i%97 == 5 {
				ys[i] = r.NormFloat64() * 1e3
			}
		}
		var wantX, wantY Moments
		for _, x := range xs {
			wantX.Add(x)
		}
		for _, y := range ys {
			wantY.Add(y)
		}
		gotX, gotY := PairMoments(xs, ys)
		if momentBits(gotX) != momentBits(wantX) || momentBits(gotY) != momentBits(wantY) {
			t.Errorf("n=%d: PairMoments = %+v, %+v; want %+v, %+v", n, gotX, gotY, wantX, wantY)
		}
		// The two samples must not leak into each other: swapping them
		// swaps the results.
		if sy, sx := PairMoments(ys, xs); momentBits(sx) != momentBits(wantX) || momentBits(sy) != momentBits(wantY) {
			t.Errorf("n=%d: swapped PairMoments = %+v, %+v", n, sy, sx)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("PairMoments of unequal lengths did not panic")
		}
	}()
	PairMoments([]float64{1, 2}, []float64{1})
}
