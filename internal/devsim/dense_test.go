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

// developer is a process with a Develop method: every concrete process.
type developer interface {
	Process
	Develop(r *randx.Stream) *Version
}

// denseTestProcesses builds every process over one universe of n faults
// with degenerate p = 0 and p = 1 faults mixed in, and tied pairs that
// cross bitset words.
func denseTestProcesses(t *testing.T, n int) map[string]developer {
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
	return map[string]developer{
		"independent":    NewIndependentProcess(fs),
		"common-cause":   common,
		"resource-shift": shift,
		"tied-pairs":     tied,
	}
}

// TestDevelopMatchesOneLaneRows: for every process, universe sizes on and
// off word boundaries, and many seeds, Develop must be lane 0 of the
// scalar reference's one-lane development bit for bit, leave the stream
// where the reference leaves it, record touched words in ascending order,
// and report the PFD and fault count BitsetPFD gives the reference mask.
func TestDevelopMatchesOneLaneRows(t *testing.T) {
	t.Parallel()

	for _, n := range []int{1, 63, 64, 65, 150, 257} {
		for name, proc := range denseTestProcesses(t, n) {
			for seed := uint64(1); seed <= 40; seed++ {
				a, b := randx.NewStream(seed), randx.NewStream(seed)
				v := proc.Develop(a)
				want := refDevelopBatch(t, proc, b, 1)[0]
				ref := NewBitset(n)
				for i, has := range want {
					if v.Has(i) != has {
						t.Fatalf("%s n=%d seed=%d: bit %d Develop=%v one-lane reference=%v", name, n, seed, i, v.Has(i), has)
					}
					if has {
						ref.Set(i)
					}
				}
				if ua, ub := a.Uint64(), b.Uint64(); ua != ub {
					t.Fatalf("%s n=%d seed=%d: streams diverged after one development", name, n, seed)
				}
				touched := v.mask.Touched()
				for k := 1; k < len(touched); k++ {
					if touched[k] <= touched[k-1] {
						t.Fatalf("%s n=%d seed=%d: touched words %v not ascending", name, n, seed, touched)
					}
				}
				wantPFD, wantCount := BitsetPFD(proc.FaultSet(), ref)
				if v.PFD() != wantPFD || v.FaultCount() != wantCount {
					t.Fatalf("%s n=%d seed=%d: Develop PFD/count (%v, %d), reference (%v, %d)",
						name, n, seed, v.PFD(), v.FaultCount(), wantPFD, wantCount)
				}
			}
		}
	}
}
