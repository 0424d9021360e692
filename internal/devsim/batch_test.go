package devsim

import (
	"math"
	"slices"
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// refDevelopBatch is the naive []bool reference for DevelopRows: it
// consumes a same-seeded stream in the exact same fault-major order, so
// the kernel's mask rows must hold bit-identical lanes, and the column
// view's 64×64 transpose bit-identical columns. Every Bernoulli mask is
// replayed by bitSerial, a scalar form of Stream.Hits, and a correlated
// process's blend draws a mask only if some lane selects it.
func refDevelopBatch(t *testing.T, proc Process, r *randx.Stream, width int) [][]bool {
	t.Helper()
	n := proc.FaultSet().N()
	cols := make([][]bool, width)
	for j := range cols {
		cols[j] = make([]bool, n)
	}
	// bitSerial draws one word at a time and, for each undecided lane j,
	// compares bit j of the word with the threshold's next bit, most
	// significant of its 53 first: lower is a hit, higher a miss. Lanes
	// still undecided once the threshold has no set bit left miss.
	bitSerial := func(p float64) []bool {
		thr := BernoulliThreshold(p)
		hit := make([]bool, width)
		decided := make([]bool, width)
		if thr >= 1<<53 {
			for j := range hit {
				hit[j] = true
			}
			return hit
		}
		for bit := 52; bit >= 0 && slices.Contains(decided, false) && thr&(1<<uint(bit+1)-1) != 0; bit-- {
			u := r.Uint64()
			tb := thr >> uint(bit) & 1
			for j := range hit {
				if ub := u >> uint(j) & 1; !decided[j] && ub != tb {
					decided[j], hit[j] = true, ub < tb
				}
			}
		}
		return hit
	}
	// blend gives the lanes in sel a pSel mask and the others a pRest
	// mask.
	blend := func(pSel, pRest float64, sel []bool) []bool {
		hit := make([]bool, width)
		if slices.Contains(sel, true) {
			for j, h := range bitSerial(pSel) {
				if sel[j] {
					hit[j] = h
				}
			}
		}
		if slices.Contains(sel, false) {
			for j, h := range bitSerial(pRest) {
				if !sel[j] {
					hit[j] = h
				}
			}
		}
		return hit
	}
	setRow := func(i int, hit []bool) {
		for j, h := range hit {
			cols[j][i] = h
		}
	}
	switch p := proc.(type) {
	case *IndependentProcess:
		for i := 0; i < n; i++ {
			setRow(i, bitSerial(p.fs.Fault(i).P))
		}
	case *CommonCauseProcess:
		bad := bitSerial(p.rho)
		for i := 0; i < n; i++ {
			setRow(i, blend(p.hi[i], p.lo[i], bad))
		}
	case *ResourceShiftProcess:
		for pair := 0; pair+1 < n; pair += 2 {
			favourFirst := bitSerial(0.5)
			pa, pb := p.fs.Fault(pair).P, p.fs.Fault(pair+1).P
			setRow(pair, blend(pa*(1-p.shift), pa*(1+p.shift), favourFirst))
			setRow(pair+1, blend(pb*(1+p.shift), pb*(1-p.shift), favourFirst))
		}
		if n%2 == 1 {
			setRow(n-1, bitSerial(p.fs.Fault(n-1).P))
		}
	case *TiedPairsProcess:
		for i := 0; i < n; i++ {
			partner := p.pairOf[i]
			if partner >= 0 && partner < i {
				continue
			}
			hit := bitSerial(p.fs.Fault(i).P)
			setRow(i, hit)
			if partner > i {
				setRow(partner, hit)
			}
		}
	default:
		t.Fatalf("no reference for %T", proc)
	}
	return cols
}

// assertBatchMatchesReference runs DevelopRows over stale scratch and the
// scalar reference on same-seeded streams and requires bit-identical lanes
// and clear bits past the width; for the independent process it also
// requires DevelopBatch's columns to be the same lanes.
func assertBatchMatchesReference(t *testing.T, name string, proc Process, seed uint64, width int) {
	t.Helper()
	n := proc.FaultSet().N()
	scratch := make([]uint64, BatchScratchLen(width, n))
	for i := range scratch {
		scratch[i] = ^uint64(0) // stale state: DevelopRows must overwrite it
	}
	rows := proc.DevelopRows(randx.NewStream(seed), width, scratch)
	want := refDevelopBatch(t, proc, randx.NewStream(seed), width)
	if len(rows) != n {
		t.Fatalf("%s width=%d: %d rows, want %d", name, width, len(rows), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < 64; j++ {
			got := rows[i]>>j&1 == 1
			if j >= width {
				if got {
					t.Fatalf("%s seed=%d width=%d: fault %d has a bit in lane %d past the width", name, seed, width, i, j)
				}
				continue
			}
			if got != want[j][i] {
				t.Fatalf("%s seed=%d width=%d: lane %d fault %d rows=%v reference=%v",
					name, seed, width, j, i, got, want[j][i])
			}
		}
	}
	ip, ok := proc.(*IndependentProcess)
	if !ok {
		return
	}
	cols := make([]*Bitset, width)
	for j := range cols {
		cols[j] = NewBitset(n)
		cols[j].Set(j % n) // stale state: DevelopBatch must clear it
	}
	ip.DevelopBatch(randx.NewStream(seed), cols, scratch)
	for j := 0; j < width; j++ {
		for i := 0; i < n; i++ {
			if cols[j].Test(i) != want[j][i] {
				t.Fatalf("%s seed=%d width=%d: column %d fault %d batch=%v reference=%v",
					name, seed, width, j, i, cols[j].Test(i), want[j][i])
			}
		}
	}
}

// TestDevelopBatchMatchesFloatReference: every process's row kernel
// must reproduce the scalar reference word for word, including
// degenerate p = 0 / p = 1 faults, odd universes, and width-1 tiles.
func TestDevelopBatchMatchesFloatReference(t *testing.T) {
	t.Parallel()

	fs := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.2, Q: 0.01}, {P: 0.2, Q: 0.01}, {P: 0, Q: 0.02},
		{P: 1, Q: 0.02}, {P: 0.35, Q: 0.01}, {P: 1e-9, Q: 0.01},
		{P: 0.5, Q: 0.01},
	})
	common, err := NewCommonCauseProcess(fs, 0.25, 1.5)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	// Resource shift requires p·(1+shift) <= 1, so use a scaled-down set.
	smallFS := mustFaultSet(t, []faultmodel.Fault{
		{P: 0.2, Q: 0.01}, {P: 0.2, Q: 0.01}, {P: 0, Q: 0.02},
		{P: 0.4, Q: 0.02}, {P: 0.35, Q: 0.01}, {P: 1e-9, Q: 0.01},
		{P: 0.5, Q: 0.01},
	})
	shift, err := NewResourceShiftProcess(smallFS, 0.5)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	tied, err := NewTiedPairsProcess(fs, [][2]int{{0, 4}, {1, 6}})
	if err != nil {
		t.Fatalf("NewTiedPairsProcess: %v", err)
	}
	procs := map[string]Process{
		"independent":    NewIndependentProcess(fs),
		"common-cause":   common,
		"no-common":      mustNoCommonCause(t, fs),
		"resource-shift": shift,
		"tied-pairs":     tied,
	}
	for name, proc := range procs {
		for _, width := range []int{1, 3, 63, 64} {
			for seed := uint64(1); seed <= 25; seed++ {
				assertBatchMatchesReference(t, name, proc, seed, width)
			}
		}
	}
}

// mustNoCommonCause builds a CommonCauseProcess with rho = 0 — the
// degenerate "never a bad day" case that must skip the day coins.
func mustNoCommonCause(t *testing.T, fs *faultmodel.FaultSet) *CommonCauseProcess {
	t.Helper()
	p, err := NewCommonCauseProcess(fs, 0, 1)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess(rho=0): %v", err)
	}
	return p
}

// TestBernoulliThresholdEdges pins the degenerate thresholds the kernel
// relies on.
func TestBernoulliThresholdEdges(t *testing.T) {
	t.Parallel()

	if got := BernoulliThreshold(0); got != 0 {
		t.Errorf("BernoulliThreshold(0) = %d, want 0", got)
	}
	if got := BernoulliThreshold(1); got != 1<<53 {
		t.Errorf("BernoulliThreshold(1) = %d, want 2^53", got)
	}
	if got := BernoulliThreshold(0.5); got != halfThreshold {
		t.Errorf("BernoulliThreshold(0.5) = %d, want %d", got, uint64(halfThreshold))
	}
	if got := BernoulliThreshold(5e-324); got != 1 {
		t.Errorf("BernoulliThreshold(min subnormal) = %d, want 1", got)
	}
}

// FuzzBernoulliThreshold: the integer compare must agree with the float
// compare Stream.Float64() < p for every 64-bit draw and probability.
func FuzzBernoulliThreshold(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1<<63), uint64(1<<62))
	f.Fuzz(func(t *testing.T, u, pBits uint64) {
		p := float64(pBits) / float64(math.MaxUint64) // in [0, 1]
		intHit := u>>11 < BernoulliThreshold(p)
		floatHit := float64(u>>11)*0x1p-53 < p
		if intHit != floatHit {
			t.Fatalf("u=%d p=%v: integer compare %v, float compare %v", u, p, intHit, floatHit)
		}
	})
}

// FuzzDevelopBatchMatchesFloatReference drives the independent and
// common-cause row kernels against the scalar []bool reference over
// fuzzed probabilities, widths, and seeds.
func FuzzDevelopBatchMatchesFloatReference(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint16(6553), uint16(32767), uint16(0), uint16(65535))
	f.Add(uint64(42), uint8(1), uint16(1), uint16(2), uint16(3), uint16(4))
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, a, b, rhoBits, c uint16) {
		w := int(width%64) + 1
		ps := []float64{
			float64(a) / 65535,
			float64(b) / 65535,
			float64(c) / 65535,
		}
		faults := make([]faultmodel.Fault, 0, 9)
		for i := 0; i < 9; i++ {
			faults = append(faults, faultmodel.Fault{P: ps[i%3], Q: 1e-3})
		}
		fs, err := faultmodel.New(faults)
		if err != nil {
			t.Skip()
		}
		assertBatchMatchesReference(t, "independent", NewIndependentProcess(fs), seed, w)
		rho := float64(rhoBits) / 65536 // in [0, 1)
		if common, err := NewCommonCauseProcess(fs, rho, 1.25); err == nil {
			assertBatchMatchesReference(t, "common-cause", common, seed, w)
		}
	})
}
