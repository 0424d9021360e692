package system

import (
	"math"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// naiveSystemPFD is the brute-force reference the kernel is verified
// against: count carriers per fault with a plain loop, ask the adjudicator
// directly, and sum regions in ascending fault order (the kernel's
// documented summation order).
func naiveSystemPFD(fs *faultmodel.FaultSet, adj Adjudicator, masks [][]bool) (pfd float64, count int) {
	for i := 0; i < fs.N(); i++ {
		present := 0
		for _, mask := range masks {
			if mask[i] {
				present++
			}
		}
		if adj.Defeated(present, len(masks)) {
			pfd += fs.Fault(i).Q
			count++
		}
	}
	return ApplyStagePFD(adj, pfd), count
}

// randomUniverse draws a fault set of size n with uniform p and small
// equal-ish q values.
func randomUniverse(t *testing.T, r *randx.Stream, n int) *faultmodel.FaultSet {
	t.Helper()
	faults := make([]faultmodel.Fault, n)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: r.Float64(), Q: 0.5 / float64(n) * (0.5 + r.Float64())}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

// toBitsets packs bool masks into devsim bitsets.
func toBitsets(masks [][]bool) []*devsim.Bitset {
	out := make([]*devsim.Bitset, len(masks))
	for i, mask := range masks {
		b := devsim.NewBitset(len(mask))
		for j, set := range mask {
			if set {
				b.Set(j)
			}
		}
		out[i] = b
	}
	return out
}

// TestSystemPFDKernelsAgainstNaive is the k-of-N stacked-popcount property
// test: over random universes spanning multiple bitset words, random
// presence masks of varying density, and every adjudicator family, the
// bitset evaluation kernel must agree with the brute-force reference — the PFD
// bit for bit (identical summation order) and the defeating-fault count
// exactly.
func TestSystemPFDKernelsAgainstNaive(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(17)
	adjudicators := func(m int) []Adjudicator {
		rules := []Adjudicator{OneOutOfN{}, KOutOfN{K: 1, N: m}, KOutOfN{K: m, N: m}}
		if m >= 3 {
			rules = append(rules, MajorityVote{}, KOutOfN{K: 2, N: m},
				ImperfectAdjudicator{Voter: MajorityVote{}, StagePFD: 1e-4})
		}
		rules = append(rules, ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: 2e-3})
		return rules
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(r.Float64()*200) // 1..200 faults: 1-4 bitset words
		m := 1 + int(r.Float64()*6)   // 1..6 versions
		fs := randomUniverse(t, r, n)
		density := r.Float64()
		masks := make([][]bool, m)
		for v := range masks {
			masks[v] = make([]bool, n)
			for j := range masks[v] {
				masks[v][j] = r.Float64() < density
			}
		}
		bitsets := toBitsets(masks)
		for _, adj := range adjudicators(m) {
			wantPFD, wantCount := naiveSystemPFD(fs, adj, masks)
			gotPFD, gotCount := BitsetSystemPFD(fs, adj, bitsets)
			if gotCount != wantCount {
				t.Fatalf("trial %d n=%d m=%d adj=%s: BitsetSystemPFD count = %d, naive = %d",
					trial, n, m, adj.Name(), gotCount, wantCount)
			}
			// The bitset walk visits faults in word-then-bit order, which is
			// ascending fault order — so it too must match bit for bit.
			if gotPFD != wantPFD {
				t.Fatalf("trial %d n=%d m=%d adj=%s: BitsetSystemPFD = %v, naive = %v",
					trial, n, m, adj.Name(), gotPFD, wantPFD)
			}
		}
	}
}

// FuzzKOutOfNStackedPopcount drives the same kernel-vs-reference check
// from fuzzed inputs: pool shape (k, n), universe size, and a byte string
// unpacked into the presence masks bit by bit.
func FuzzKOutOfNStackedPopcount(f *testing.F) {
	f.Add(1, 2, 10, []byte{0xff, 0x0f, 0xa5})
	f.Add(2, 3, 70, []byte{0x01, 0x80, 0x55, 0x3c})
	f.Add(3, 5, 130, []byte{})
	f.Fuzz(func(t *testing.T, k, m, n int, bits []byte) {
		if k < 1 || m < k || m > 8 || n < 1 || n > 300 {
			t.Skip()
		}
		adj := KOutOfN{K: k, N: m}
		if err := adj.Validate(m); err != nil {
			t.Skip()
		}
		faults := make([]faultmodel.Fault, n)
		for i := range faults {
			faults[i] = faultmodel.Fault{P: 0.5, Q: 0.9 / float64(n)}
		}
		fs, err := faultmodel.New(faults)
		if err != nil {
			t.Skip()
		}
		bitAt := func(i int) bool {
			if len(bits) == 0 {
				return false
			}
			byteIdx := (i / 8) % len(bits)
			return bits[byteIdx]>>(uint(i)%8)&1 == 1
		}
		masks := make([][]bool, m)
		for v := range masks {
			masks[v] = make([]bool, n)
			for j := range masks[v] {
				masks[v][j] = bitAt(v*n + j)
			}
		}
		wantPFD, wantCount := naiveSystemPFD(fs, adj, masks)
		if gotPFD, gotCount := BitsetSystemPFD(fs, adj, toBitsets(masks)); gotPFD != wantPFD || gotCount != wantCount {
			t.Errorf("BitsetSystemPFD = (%v, %d), naive = (%v, %d)", gotPFD, gotCount, wantPFD, wantCount)
		}
	})
}

// TestRowScorerMatchesBitsetKernels: scoring a tile from its fault-major
// rows must give every lane the PFDs BitsetPFD and BitsetSystemPFD give
// that lane's columns, bit for bit, and the same fault-free flags — over
// pool sizes, every rule family including the degenerate thresholds,
// full and partial tiles, and universes spanning one or more mask words.
func TestRowScorerMatchesBitsetKernels(t *testing.T) {
	t.Parallel()

	r := randx.NewStream(23)
	for _, m := range []int{1, 2, 3, 5} {
		rules := []Adjudicator{OneOutOfN{}, thresholdRule{th: 0}, thresholdRule{th: m + 1},
			ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: 1e-4}}
		for k := 1; k <= m; k++ {
			rules = append(rules, KOutOfN{K: k, N: m})
		}
		if m >= 3 {
			rules = append(rules, MajorityVote{}, ImperfectAdjudicator{Voter: KOutOfN{K: 2, N: m}, StagePFD: 1e-4})
		}
		for _, n := range []int{1, 40, 64, 65, 150} {
			fs := randomUniverse(t, r, n)
			for _, width := range []int{1, 2, 63, 64} {
				rows := make([][]uint64, m)
				cols := make([][][]bool, width) // [lane][version][fault]
				for j := range cols {
					cols[j] = make([][]bool, m)
					for v := range cols[j] {
						cols[j][v] = make([]bool, n)
					}
				}
				for v := range rows {
					rows[v] = make([]uint64, n)
					for i := 0; i < n; i++ {
						p := fs.Fault(i).P
						for j := 0; j < width; j++ {
							if r.Float64() < p {
								rows[v][i] |= 1 << uint(j)
								cols[j][v][i] = true
							}
						}
					}
				}
				for _, adj := range rules {
					var vpfd, spfd [64]float64
					vAny, sAny := NewRowScorer(fs, adj, m).Score(rows, width, &vpfd, &spfd)
					for j := 0; j < width; j++ {
						masks := toBitsets(cols[j])
						wantV, vCount := devsim.BitsetPFD(fs, masks[0])
						wantS, sCount := BitsetSystemPFD(fs, adj, masks)
						vFault, sFault := vAny>>uint(j)&1 == 1, sAny>>uint(j)&1 == 1
						if math.Float64bits(vpfd[j]) != math.Float64bits(wantV) || vFault != (vCount > 0) {
							t.Fatalf("m=%d n=%d width=%d %s lane %d: version (%v, faulty %v), columns (%v, %d faults)",
								m, n, width, adj.Name(), j, vpfd[j], vFault, wantV, vCount)
						}
						if math.Float64bits(spfd[j]) != math.Float64bits(wantS) || sFault != (sCount > 0) {
							t.Fatalf("m=%d n=%d width=%d %s lane %d: system (%v, faulty %v), columns (%v, %d faults)",
								m, n, width, adj.Name(), j, spfd[j], sFault, wantS, sCount)
						}
					}
					if width < 64 && (vAny|sAny)>>uint(width) != 0 {
						t.Fatalf("m=%d n=%d width=%d %s: fault bits past the width", m, n, width, adj.Name())
					}
				}
			}
		}
	}
}

// TestBitsetKernelDegenerateThresholds covers the kernel branches no real
// voting rule reaches: a rule no carrier count defeats, and a rule
// defeated even by absent faults.
func TestBitsetKernelDegenerateThresholds(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{{P: 0.5, Q: 0.1}, {P: 0.5, Q: 0.2}})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	masks := [][]bool{{true, false}, {false, false}}
	never := thresholdRule{th: 3} // 2-version pool: threshold 3 unreachable
	if pfd, count := BitsetSystemPFD(fs, never, toBitsets(masks)); pfd != 0 || count != 0 {
		t.Errorf("unreachable threshold: got (%v, %d), want (0, 0)", pfd, count)
	}
	always := thresholdRule{th: 0}
	pfd, count := BitsetSystemPFD(fs, always, toBitsets(masks))
	if math.Abs(pfd-0.3) > 1e-15 || count != 2 {
		t.Errorf("zero threshold: got (%v, %d), want (0.3, 2)", pfd, count)
	}
}

// thresholdRule is a test-only adjudicator with an explicit defeat
// threshold, for exercising degenerate kernel branches.
type thresholdRule struct{ th int }

func (r thresholdRule) Name() string               { return "test-threshold" }
func (r thresholdRule) Defeated(count, n int) bool { return count >= r.th }
func (r thresholdRule) Validate(n int) error       { return nil }
