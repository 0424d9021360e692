package montecarlo

import (
	"encoding/json"
	"math"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/stats"
	"diversity/internal/system"
)

func testProcess(t *testing.T) devsim.Process {
	t.Helper()
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.2, Q: 0.05},
		{P: 0.4, Q: 0.1},
		{P: 0.1, Q: 0.2},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return devsim.NewIndependentProcess(fs)
}

func TestRunValidation(t *testing.T) {
	t.Parallel()

	proc := testProcess(t)
	if _, err := Run(Config{Versions: 2, Reps: 10}); err == nil {
		t.Error("nil process succeeded, want error")
	}
	if _, err := Run(Config{Process: proc, Versions: 0, Reps: 10}); err == nil {
		t.Error("zero versions succeeded, want error")
	}
	if _, err := Run(Config{Process: proc, Versions: 2, Reps: 0}); err == nil {
		t.Error("zero reps succeeded, want error")
	}
}

func TestRunReproducible(t *testing.T) {
	t.Parallel()

	proc := testProcess(t)
	cfg := Config{Process: proc, Versions: 2, Reps: 2000, Seed: 42, Workers: 4}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range a.SystemPFD {
		if a.SystemPFD[i] != b.SystemPFD[i] || a.VersionPFD[i] != b.VersionPFD[i] {
			t.Fatalf("rep %d: runs with the same seed diverged", i)
		}
	}
	if a.VersionFaultFree != b.VersionFaultFree || a.SystemFaultFree != b.SystemFaultFree {
		t.Error("counts diverged between identical runs")
	}
}

// TestRunMatchesModelMoments is experiment E01 in miniature: empirical
// moments against equations (1)–(2).
func TestRunMatchesModelMoments(t *testing.T) {
	t.Parallel()

	proc := testProcess(t)
	fs := proc.FaultSet()
	res, err := Run(Config{Process: proc, Versions: 2, Reps: 200000, Seed: 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, tc := range []struct {
		name    string
		samples []float64
		m       int
	}{
		{name: "version", samples: res.VersionPFD, m: 1},
		{name: "system", samples: res.SystemPFD, m: 2},
	} {
		gotMean, err := stats.Mean(tc.samples)
		if err != nil {
			t.Fatalf("Mean: %v", err)
		}
		wantMean, err := fs.MeanPFD(tc.m)
		if err != nil {
			t.Fatalf("MeanPFD: %v", err)
		}
		if math.Abs(gotMean-wantMean) > 0.001 {
			t.Errorf("%s mean = %.5f, model %.5f", tc.name, gotMean, wantMean)
		}
		gotSD, err := stats.StdDev(tc.samples)
		if err != nil {
			t.Fatalf("StdDev: %v", err)
		}
		wantSD, err := fs.SigmaPFD(tc.m)
		if err != nil {
			t.Fatalf("SigmaPFD: %v", err)
		}
		if math.Abs(gotSD-wantSD) > 0.001 {
			t.Errorf("%s sigma = %.5f, model %.5f", tc.name, gotSD, wantSD)
		}
	}
}

// TestRunMatchesNoFaultProbabilities cross-checks P(N=0) frequencies
// against the closed forms.
func TestRunMatchesNoFaultProbabilities(t *testing.T) {
	t.Parallel()

	proc := testProcess(t)
	fs := proc.FaultSet()
	res, err := Run(Config{Process: proc, Versions: 2, Reps: 200000, Seed: 11})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want1, err := fs.PNoFault(1)
	if err != nil {
		t.Fatalf("PNoFault(1): %v", err)
	}
	got1 := float64(res.VersionFaultFree) / float64(res.Reps)
	if math.Abs(got1-want1) > 0.005 {
		t.Errorf("P(N1=0) empirical %.4f, model %.4f", got1, want1)
	}
	want2, err := fs.PNoFault(2)
	if err != nil {
		t.Fatalf("PNoFault(2): %v", err)
	}
	got2 := float64(res.SystemFaultFree) / float64(res.Reps)
	if math.Abs(got2-want2) > 0.005 {
		t.Errorf("P(N2=0) empirical %.4f, model %.4f", got2, want2)
	}

	// Risk ratio, equation (10).
	wantRatio, err := fs.RiskRatio()
	if err != nil {
		t.Fatalf("RiskRatio: %v", err)
	}
	gotRatio, err := res.RiskRatio()
	if err != nil {
		t.Fatalf("empirical RiskRatio: %v", err)
	}
	if math.Abs(gotRatio-wantRatio) > 0.02 {
		t.Errorf("risk ratio empirical %.4f, model %.4f", gotRatio, wantRatio)
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	t.Parallel()

	// Each block draws from its own stream keyed by its index, so the
	// sample does not depend on parallelism at all: compare raw samples.
	proc := testProcess(t)
	one, err := Run(Config{Process: proc, Versions: 2, Reps: 100000, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	eight, err := Run(Config{Process: proc, Versions: 2, Reps: 100000, Seed: 3, Workers: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range one.SystemPFD {
		if one.VersionPFD[i] != eight.VersionPFD[i] || one.SystemPFD[i] != eight.SystemPFD[i] {
			t.Fatalf("replication %d differs between 1 and 8 workers", i)
		}
	}
}

func TestRunMoreWorkersThanReps(t *testing.T) {
	t.Parallel()

	proc := testProcess(t)
	res, err := Run(Config{Process: proc, Versions: 2, Reps: 3, Seed: 1, Workers: 16})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Reps != 3 || len(res.SystemPFD) != 3 {
		t.Errorf("got %d reps, want 3", res.Reps)
	}
}

func TestRunMajorityArchitecture(t *testing.T) {
	t.Parallel()

	proc := testProcess(t)
	res, err := Run(Config{
		Process:     proc,
		Versions:    3,
		Adjudicator: system.MajorityVote{},
		Reps:        50000,
		Seed:        13,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Majority system PFD mean: fault defeats system when present in >= 2
	// of 3 versions: probability 3p²(1-p) + p³ per fault.
	fs := proc.FaultSet()
	want := 0.0
	for i := 0; i < fs.N(); i++ {
		p, q := fs.Fault(i).P, fs.Fault(i).Q
		want += (3*p*p*(1-p) + p*p*p) * q
	}
	got, err := stats.Mean(res.SystemPFD)
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if math.Abs(got-want) > 0.002 {
		t.Errorf("majority mean PFD = %.5f, want %.5f", got, want)
	}
}

func TestResultRiskRatioUndefined(t *testing.T) {
	t.Parallel()

	res := &Result{Reps: 10, VersionFaultFree: 10, SystemFaultFree: 10}
	if _, err := res.RiskRatio(); err == nil {
		t.Error("risk ratio with zero denominator succeeded, want error")
	}
}

// TestSummarizedKeepsSummaries: a summarised result answers every
// accessor exactly as the run's result does, in both aggregation modes,
// holds no samples or aggregates, survives a JSON round trip bit for
// bit, and is a fixed point of Summarized.
func TestSummarizedKeepsSummaries(t *testing.T) {
	t.Parallel()

	for _, streaming := range []bool{false, true} {
		res, err := Run(Config{Process: testProcess(t), Versions: 2, Reps: 5000, Seed: 3, Workers: 2, Streaming: streaming})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		sum, err := res.Summarized()
		if err != nil {
			t.Fatalf("Summarized: %v", err)
		}
		if sum.VersionPFD != nil || sum.SystemPFD != nil || sum.VersionAgg != nil || sum.SystemAgg != nil {
			t.Fatalf("streaming=%v: summarised result still holds samples or aggregates", streaming)
		}
		if res.VersionSum != nil || res.SystemSum != nil {
			t.Fatalf("streaming=%v: Summarized modified its receiver", streaming)
		}
		var back Result
		raw, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("encoding summarised result: %v", err)
		}
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("decoding summarised result: %v", err)
		}
		for _, got := range []*Result{sum, &back} {
			for _, summary := range []func(*Result) (stats.Summary, error){(*Result).VersionSummary, (*Result).SystemSummary} {
				w, werr := summary(res)
				g, gerr := summary(got)
				if werr != nil || gerr != nil || w != g {
					t.Errorf("streaming=%v: summary %+v (%v), want %+v (%v)", streaming, g, gerr, w, werr)
				}
			}
			wr, _ := res.RiskRatio()
			gr, _ := got.RiskRatio()
			if gr != wr || got.VersionFaultFree != res.VersionFaultFree || got.Reps != res.Reps || got.Streaming != streaming {
				t.Errorf("streaming=%v: summarised counts or flags differ from the run's", streaming)
			}
		}
		if again, err := sum.Summarized(); err != nil || again != sum {
			t.Errorf("streaming=%v: re-summarising returned %p (%v), want the receiver %p", streaming, again, err, sum)
		}
	}
}
