package system

import (
	"fmt"
	"math"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// fragmentedUniverse draws a fault set of size n whose presence
// probabilities come in runs of 1 to 8 faults from a small palette, so
// equal-p groups recur in several runs (fragmented), some groups are too
// small to skip-sample, and p = 0 holes split them.
func fragmentedUniverse(t *testing.T, r *randx.Stream, n int) *faultmodel.FaultSet {
	t.Helper()
	palette := []float64{0, 0.02, 0.1, 0.35, 0.9}
	faults := make([]faultmodel.Fault, 0, n)
	for len(faults) < n {
		p := palette[r.IntN(len(palette))]
		for run := 1 + r.IntN(8); run > 0 && len(faults) < n; run-- {
			faults = append(faults, faultmodel.Fault{P: p, Q: 0.5 / float64(n) * (0.5 + r.Float64())})
		}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

// TestScoreSparseMatchesScore: scoring a tile's sparse rows must give
// every lane bit for bit the PFDs, and the same fault lanes, that Score
// gives the same masks as dense rows — for every rule family (1oon,
// majority, k-of-N, an imperfect stage, and the degenerate thresholds 0
// and m+1), tile widths 1, 17 and 64, and random universes with
// fragmented groups, whose rows devsim sorts after drawing. One scorer
// scores every tile of a cell, sparse and dense alternately, so state
// left over from a tile cannot go unnoticed.
func TestScoreSparseMatchesScore(t *testing.T) {
	t.Parallel()

	pools := []struct {
		m   int
		adj Adjudicator
	}{
		{1, OneOutOfN{}},
		{2, OneOutOfN{}},
		{3, OneOutOfN{}},
		{3, MajorityVote{}},
		{5, MajorityVote{}},
		{3, KOutOfN{K: 2, N: 3}},
		{5, KOutOfN{K: 3, N: 5}},
		{2, ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: 1e-4}},
		{3, ImperfectAdjudicator{Voter: KOutOfN{K: 2, N: 3}, StagePFD: 1e-4}},
		{2, thresholdRule{th: 0}},
		{3, thresholdRule{th: 4}},
	}
	r := randx.NewStream(31)
	for _, n := range []int{5, 40, 150} {
		for trial := 0; trial < 4; trial++ {
			fs := fragmentedUniverse(t, r, n)
			proc := devsim.NewIndependentProcess(fs)
			for _, pool := range pools {
				s := NewRowScorer(fs, pool.adj, pool.m)
				for _, width := range []int{1, 17, 64} {
					name := fmt.Sprintf("n=%d trial %d m=%d %s width %d", n, trial, pool.m, pool.adj.Name(), width)
					for tile := 0; tile < 8; tile++ {
						sparse := make([][]devsim.SparseRow, pool.m)
						dense := make([][]uint64, pool.m)
						for v := range sparse {
							sparse[v], _ = proc.DevelopSparseRows(r, width, nil)
							dense[v] = make([]uint64, n)
							for _, row := range sparse[v] {
								dense[v][row.Fault] = row.Lanes
							}
						}
						var vWant, sWant, vGot, sGot [64]float64
						vAnyWant, sAnyWant := s.Score(dense, width, &vWant, &sWant)
						vAnyGot, sAnyGot := s.ScoreSparse(sparse, width, &vGot, &sGot)
						if vAnyGot != vAnyWant || sAnyGot != sAnyWant {
							t.Fatalf("%s: fault lanes (%#x, %#x), dense rows give (%#x, %#x)",
								name, vAnyGot, sAnyGot, vAnyWant, sAnyWant)
						}
						for j := 0; j < width; j++ {
							if math.Float64bits(vGot[j]) != math.Float64bits(vWant[j]) ||
								math.Float64bits(sGot[j]) != math.Float64bits(sWant[j]) {
								t.Fatalf("%s lane %d: (%v, %v), dense rows give (%v, %v)",
									name, j, vGot[j], sGot[j], vWant[j], sWant[j])
							}
						}
					}
				}
			}
		}
	}
}
