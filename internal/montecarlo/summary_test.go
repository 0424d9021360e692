package montecarlo

import (
	"fmt"
	"math"
	"testing"

	"diversity/internal/scenario"
	"diversity/internal/stats"
	"diversity/internal/system"
)

// fullSortSummary is the buffered summary as the harness computed it
// before it sorted only the PFDs that are not +0 and paired the moment
// folds: stats.Summarize over a full sort, then every moment replaced by
// the block-ordered fold of one population.
func fullSortSummary(xs []float64) (stats.Summary, error) {
	s, err := stats.Summarize(xs)
	if err != nil {
		return s, err
	}
	var m stats.Moments
	for lo := 0; lo < len(xs); lo += blockSize {
		var b stats.Moments
		for _, x := range xs[lo:min(lo+blockSize, len(xs))] {
			b.Add(x)
		}
		m.Merge(b)
	}
	s.Mean, s.Skewness, s.Kurtosis = m.Mean(), m.Skewness(), m.Kurtosis()
	if sd, err := m.StdDev(); err == nil {
		s.StdDev = sd
	}
	return s, nil
}

// summaryBits returns N and the bits of every float of s.
func summaryBits(s stats.Summary) [11]uint64 {
	b := [11]uint64{uint64(s.N)}
	for i, x := range []float64{s.Mean, s.StdDev, s.Min, s.Max, s.Median, s.Q05, s.Q95, s.Q99, s.Skewness, s.Kurtosis} {
		b[i+1] = math.Float64bits(x)
	}
	return b
}

// TestBufferedSummaryBits: Summarized, and VersionSummary/SystemSummary
// on a raw buffered result, give the bits of fullSortSummary for the
// four processes over a safety-grade universe, where most PFDs are +0,
// and over the pins' universe, where none is; under three voting rules,
// at replication counts around the block size and at a serve job's
// 20,000, at one and three workers.
func TestBufferedSummaryBits(t *testing.T) {
	t.Parallel()

	sc, err := scenario.SafetyGrade(1)
	if err != nil {
		t.Fatalf("SafetyGrade: %v", err)
	}
	universes := map[string][]pinProcess{
		"safety-grade": processesOver(t, sc.FaultSet, [][2]int{{0, 5}, {6, 3}}),
		"pins":         pinProcesses(t),
	}
	rules := []struct {
		versions int
		adj      string
	}{{2, "1oon"}, {3, "2oo3"}, {2, "1oo2@1e-4"}}
	for uname, procs := range universes {
		for _, p := range procs {
			for _, rule := range rules {
				adj, err := system.ParseAdjudicator(rule.adj)
				if err != nil {
					t.Fatalf("ParseAdjudicator(%q): %v", rule.adj, err)
				}
				for _, reps := range []int{1, 2, 2047, 2048, 2049, 20000} {
					for _, workers := range []int{1, 3} {
						label := fmt.Sprintf("%s/%s/%s/reps=%d/workers=%d", uname, p.name, rule.adj, reps, workers)
						res, err := Run(Config{Process: p.proc, Versions: rule.versions, Adjudicator: adj, Reps: reps, Workers: workers, Seed: 5})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkSummaryBits(t, label, res)
					}
				}
			}
		}
	}
}

// checkSummaryBits compares every summary of the buffered result res
// with fullSortSummary of its samples.
func checkSummaryBits(t *testing.T, label string, res *Result) {
	t.Helper()
	wantV, err := fullSortSummary(res.VersionPFD)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantS, err := fullSortSummary(res.SystemPFD)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sum, err := res.Summarized()
	if err != nil {
		t.Fatalf("%s: Summarized: %v", label, err)
	}
	v, verr := res.VersionSummary()
	s, serr := res.SystemSummary()
	if verr != nil || serr != nil {
		t.Fatalf("%s: summaries: %v, %v", label, verr, serr)
	}
	for _, c := range []struct {
		name      string
		got, want stats.Summary
	}{
		{"Summarized version", *sum.VersionSum, wantV},
		{"Summarized system", *sum.SystemSum, wantS},
		{"VersionSummary", v, wantV},
		{"SystemSummary", s, wantS},
	} {
		if summaryBits(c.got) != summaryBits(c.want) {
			t.Errorf("%s: %s = %+v, want %+v", label, c.name, c.got, c.want)
		}
	}
}
