package devsim

import (
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// newVersion packs a []bool presence mask into a Version, for tests that
// need versions with chosen faults.
func newVersion(fs *faultmodel.FaultSet, present []bool) *Version {
	v := &Version{mask: NewBitset(len(present))}
	for i, has := range present {
		if has {
			v.mask.Set(i)
		}
	}
	v.pfd, v.count = BitsetPFD(fs, v.mask)
	return v
}

// refDevelop is the element-wise []bool development loop every process
// ran before masks were built a word at a time. DevelopInto must consume
// exactly these variates and produce exactly these masks.
func refDevelop(proc Process, r *randx.Stream) []bool {
	fs := proc.FaultSet()
	present := make([]bool, fs.N())
	switch p := proc.(type) {
	case *IndependentProcess:
		for i := range present {
			present[i] = r.BernoulliValidated(fs.Fault(i).P)
		}
	case *CommonCauseProcess:
		probs := p.lo
		if r.Bernoulli(p.rho) {
			probs = p.hi
		}
		for i := range present {
			present[i] = r.Bernoulli(probs[i])
		}
	case *ResourceShiftProcess:
		n := fs.N()
		for pair := 0; pair+1 < n; pair += 2 {
			favourFirst := r.BernoulliValidated(0.5)
			for offset := 0; offset < 2; offset++ {
				i := pair + offset
				pi := fs.Fault(i).P
				if (offset == 0) == favourFirst {
					pi *= 1 - p.shift
				} else {
					pi *= 1 + p.shift
				}
				present[i] = r.Bernoulli(pi)
			}
		}
		if n%2 == 1 {
			present[n-1] = r.Bernoulli(fs.Fault(n - 1).P)
		}
	case *TiedPairsProcess:
		for i := range present {
			if partner := p.pairOf[i]; partner == -1 || partner > i {
				hit := r.Bernoulli(fs.Fault(i).P)
				present[i] = hit
				if partner > i {
					present[partner] = hit
				}
			}
		}
	default:
		panic("refDevelop: unknown process")
	}
	return present
}

// denseTestProcesses builds every process over one universe of n faults
// with degenerate p = 0 and p = 1 faults mixed in, and tied pairs that
// cross bitset words.
func denseTestProcesses(t *testing.T, n int) map[string]Process {
	t.Helper()
	faults := make([]faultmodel.Fault, n)
	for i := range faults {
		p := 0.05 + 0.4*float64(i%5)/5
		switch i % 17 {
		case 3:
			p = 0
		case 11:
			p = 1
		}
		faults[i] = faultmodel.Fault{P: p, Q: 0.5 / float64(n)}
	}
	fs := mustFaultSet(t, faults)
	common, err := NewCommonCauseProcess(fs, 0.3, 1.5)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	// Shift 0.5 keeps p·(1+shift) ≤ 1 for every fault but the p = 1 ones,
	// which the constructor would reject; drop those for this process.
	shiftFaults := append([]faultmodel.Fault(nil), faults...)
	for i := range shiftFaults {
		if shiftFaults[i].P == 1 {
			shiftFaults[i].P = 0.6
		}
	}
	shift, err := NewResourceShiftProcess(mustFaultSet(t, shiftFaults), 0.5)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	var pairs [][2]int
	switch {
	case n > 70:
		pairs = [][2]int{{0, n - 1}, {5, 70}, {n / 2, 1}}
	case n > 1:
		pairs = [][2]int{{0, n - 1}}
	}
	tied, err := NewTiedPairsProcess(fs, pairs)
	if err != nil {
		t.Fatalf("NewTiedPairsProcess: %v", err)
	}
	return map[string]Process{
		"independent":    NewIndependentProcess(fs),
		"common-cause":   common,
		"resource-shift": shift,
		"tied-pairs":     tied,
	}
}

// TestDevelopIntoMatchesElementwise: for every process, universe sizes on
// and off word boundaries, and many seeds, DevelopInto must reproduce the
// element-wise loop's mask bit for bit, leave the stream in the same
// state, and record touched words in ascending order. Develop must agree
// with both.
func TestDevelopIntoMatchesElementwise(t *testing.T) {
	t.Parallel()

	for _, n := range []int{1, 63, 64, 65, 150, 257} {
		for name, proc := range denseTestProcesses(t, n) {
			mask := NewBitset(n)
			for seed := uint64(1); seed <= 40; seed++ {
				a, b, c := randx.NewStream(seed), randx.NewStream(seed), randx.NewStream(seed)
				proc.DevelopInto(a, mask)
				want := refDevelop(proc, b)
				v := proc.Develop(c)
				for i := range want {
					if mask.Test(i) != want[i] || v.Has(i) != want[i] {
						t.Fatalf("%s n=%d seed=%d: bit %d DevelopInto=%v Develop=%v element-wise=%v",
							name, n, seed, i, mask.Test(i), v.Has(i), want[i])
					}
				}
				if ua, ub, uc := a.Uint64(), b.Uint64(), c.Uint64(); ua != ub || ub != uc {
					t.Fatalf("%s n=%d seed=%d: streams diverged after one development", name, n, seed)
				}
				touched := mask.Touched()
				for k := 1; k < len(touched); k++ {
					if touched[k] <= touched[k-1] {
						t.Fatalf("%s n=%d seed=%d: touched words %v not ascending", name, n, seed, touched)
					}
				}
				wantPFD, wantCount := 0.0, 0
				for i, has := range want {
					if has {
						wantPFD += proc.FaultSet().Fault(i).Q
						wantCount++
					}
				}
				if v.PFD() != wantPFD || v.FaultCount() != wantCount {
					t.Fatalf("%s n=%d seed=%d: Develop PFD/count (%v, %d), element-wise (%v, %d)",
						name, n, seed, v.PFD(), v.FaultCount(), wantPFD, wantCount)
				}
			}
		}
	}
}
