package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/report"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

func writeModel(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestRunBasicSimulation(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"name": "sim", "faults": [{"p": 0.3, "q": 0.05}, {"p": 0.2, "q": 0.1}]}`)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-reps", "20000", "-seed", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"Model: sim", "20000 replications", "Simulated PFD populations",
		"Fault-free outcomes", "risk ratio",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunMajority(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.3, "q": 0.05}]}`)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-reps", "5000", "-versions", "3", "-adjudicator", "majority"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "majority adjudication") {
		t.Errorf("output missing voting rule:\n%s", out.String())
	}
}

func TestRunWithCorrelation(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.05}, {"p": 0.1, "q": 0.05}]}`)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-reps", "5000", "-correlation", "0.2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Simulated PFD populations") {
		t.Errorf("correlated run produced no table:\n%s", out.String())
	}
}

func TestRunScenario(t *testing.T) {
	t.Parallel()

	var out strings.Builder
	if err := run(context.Background(), []string{"-scenario", "commercial-grade", "-reps", "5000"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "commercial-grade") {
		t.Errorf("output missing scenario:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()

	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("no model succeeded, want error")
	}
	if err := run(context.Background(), []string{"-scenario", "bogus"}, &out); err == nil {
		t.Error("unknown scenario succeeded, want error")
	}
	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.05}]}`)
	if err := run(context.Background(), []string{"-model", path, "-adjudicator", "bogus"}, &out); err == nil {
		t.Error("unknown adjudicator succeeded, want error")
	}
	if err := run(context.Background(), []string{"-model", path, "-reps", "0"}, &out); err == nil {
		t.Error("zero reps succeeded, want error")
	}
	if err := run(context.Background(), []string{"-model", path, "-correlation", "2"}, &out); err == nil {
		t.Error("invalid correlation succeeded, want error")
	}
}

func TestRunRareEstimation(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"name": "rare", "faults": [{"p": 0.003, "q": 0.001}, {"p": 0.002, "q": 0.002}]}`)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-reps", "20000", "-rare"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"rare-event estimation", "importance sampling", "naive Monte Carlo", "closed form"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// The rare path reads the voting rule: a majority pool of 3 prints the
	// majority closed form, not the 1-out-of-3 one.
	fs, err := faultmodel.New([]faultmodel.Fault{{P: 0.003, Q: 0.001}, {P: 0.002, Q: 0.002}})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	majority, err := system.PAnySystemFault(fs, system.MajorityVote{}, 3)
	if err != nil {
		t.Fatalf("PAnySystemFault: %v", err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"-model", path, "-reps", "20000", "-rare", "-adjudicator", "majority", "-versions", "3"}, &out); err != nil {
		t.Fatalf("run majority: %v", err)
	}
	text = strings.Join(strings.Fields(out.String()), " ")
	for _, want := range []string{
		"P(any majority-defeating fault in 3 versions)",
		"closed form (eq 10 numerator) " + report.Fmt(majority),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("majority rare output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRareMatchesEstimator: -rare prints exactly the estimate the
// library's importance-sampling estimator returns for the same model,
// replication count and seed.
func TestRunRareMatchesEstimator(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"name": "rare", "faults": [{"p": 0.003, "q": 0.001}, {"p": 0.002, "q": 0.002}, {"p": 0.001, "q": 0.001}]}`)
	fs, err := faultmodel.New([]faultmodel.Fault{{P: 0.003, Q: 0.001}, {P: 0.002, Q: 0.002}, {P: 0.001, Q: 0.001}})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	ctx := context.Background()
	var out strings.Builder
	args := []string{"-model", path, "-reps", "20000", "-seed", "7", "-rare"}
	if err := run(ctx, args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	is, err := montecarlo.EstimateRareSystemFaultOpts(ctx, fs, 2, 20000, 7, 0.3, montecarlo.RareOptions{})
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	want := fmt.Sprintf("importance sampling %s %s %s",
		report.Fmt(is.Probability), report.Fmt(is.StdErr), report.Fmt(is.HitFraction))
	if !strings.Contains(strings.Join(strings.Fields(out.String()), " "), want) {
		t.Errorf("output lacks the estimate %q:\n%s", want, out.String())
	}
}

// TestTelemetryRun is the observability acceptance check: a fixed-seed
// run with every telemetry flag set writes a snapshot carrying the job
// duration, cache hit/miss counts and replications/sec — while stdout
// stays byte-identical to a run without any telemetry flags.
func TestTelemetryRun(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"name": "telemetry", "faults": [{"p": 0.3, "q": 0.05}, {"p": 0.2, "q": 0.1}]}`)
	base := []string{"-model", path, "-reps", "20000", "-seed", "3"}

	var plain strings.Builder
	if err := run(context.Background(), base, &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	snapPath := filepath.Join(t.TempDir(), "telemetry.json")
	instrumented := append(append([]string{}, base...),
		"-telemetry-json", snapPath, "-metrics-addr", "127.0.0.1:0", "-log-level", "error")
	var metered strings.Builder
	if err := run(context.Background(), instrumented, &metered); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}

	if plain.String() != metered.String() {
		t.Errorf("telemetry flags changed stdout:\n--- plain ---\n%s\n--- instrumented ---\n%s", plain.String(), metered.String())
	}

	doc, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(doc, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if h := snap.Histograms["engine.job_duration_seconds.montecarlo"]; h.Count != 1 {
		t.Errorf("job duration observations = %d, want 1", h.Count)
	}
	if _, ok := snap.Counters["engine.cache.hits"]; !ok {
		t.Error("snapshot missing engine.cache.hits")
	}
	if snap.Counters["engine.cache.misses"] != 1 {
		t.Errorf("cache misses = %d, want 1", snap.Counters["engine.cache.misses"])
	}
	if snap.Gauges["montecarlo.replications_per_second"] <= 0 {
		t.Errorf("replications_per_second = %v, want > 0", snap.Gauges["montecarlo.replications_per_second"])
	}
	if len(snap.Runs) != 1 {
		t.Errorf("snapshot carries %d run traces, want 1", len(snap.Runs))
	}
}

// TestTelemetryBadFlags: telemetry flag validation fails fast.
func TestTelemetryBadFlags(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.05}]}`)
	var out strings.Builder
	err := run(context.Background(), []string{"-model", path, "-reps", "100000000", "-log-level", "loud"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown log level") {
		t.Fatalf("bad -log-level: err = %v, want unknown log level", err)
	}
}

// TestFlagValidation checks that invalid flag combinations fail with a
// clear error before any simulation work starts: the huge replication
// counts below would take minutes if validation ran after the work.
func TestFlagValidation(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.05}]}`)
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"zero reps", []string{"-model", path, "-reps", "0"}, "replication count 0"},
		{"negative reps", []string{"-model", path, "-reps", "-5"}, "replication count -5"},
		{"negative workers", []string{"-model", path, "-reps", "100000000", "-workers", "-1"}, "worker count -1"},
		{"zero versions", []string{"-model", path, "-reps", "100000000", "-versions", "0"}, "versions per replication 0"},
		{"unknown adjudicator", []string{"-model", path, "-adjudicator", "sideways"}, `unknown adjudicator "sideways"`},
		{"correlation above one", []string{"-model", path, "-correlation", "2"}, "must be a probability"},
		{"both model and scenario", []string{"-model", path, "-scenario", "safety-grade"}, "not both"},
		{"no model", nil, "a model is required"},
		{"unknown scenario", []string{"-scenario", "bogus"}, `unknown scenario "bogus"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			start := time.Now()
			err := run(context.Background(), tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.wantSub)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("validation took %v; it must fail before any work starts", elapsed)
			}
		})
	}
}

func TestRunStreaming(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.3, "q": 0.05}, {"p": 0.2, "q": 0.1}]}`)
	args := []string{"-model", path, "-reps", "20000", "-seed", "3"}
	var buffered, streaming strings.Builder
	if err := run(context.Background(), args, &buffered); err != nil {
		t.Fatalf("buffered run: %v", err)
	}
	if err := run(context.Background(), append(args, "-stream"), &streaming); err != nil {
		t.Fatalf("streaming run: %v", err)
	}
	if strings.Contains(buffered.String(), "streaming aggregation") {
		t.Error("buffered output mentions streaming aggregation")
	}
	if !strings.Contains(streaming.String(), "streaming aggregation") {
		t.Errorf("streaming output does not say so:\n%s", streaming.String())
	}
	// Moments, extremes and counters must match the buffered run exactly;
	// only the quantile rows (median/percentiles) may differ, at histogram
	// resolution.
	bufLines := strings.Split(buffered.String(), "\n")
	strLines := strings.Split(streaming.String(), "\n")
	if len(bufLines) != len(strLines) {
		t.Fatalf("output shapes differ: %d vs %d lines", len(bufLines), len(strLines))
	}
	for i, line := range bufLines {
		exact := false
		for _, prefix := range []string{"mean ", "std dev", "max ", "version fault-free", "system fault-free", "Empirical risk ratio"} {
			if strings.HasPrefix(line, prefix) {
				exact = true
			}
		}
		if exact && strLines[i] != line {
			t.Errorf("line %d diverged between modes:\nbuffered:  %q\nstreaming: %q", i+1, line, strLines[i])
		}
	}
}

func TestRunSparse(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.3, "q": 0.05}, {"p": 0.2, "q": 0.1}, {"p": 0.2, "q": 0.02}]}`)
	args := []string{"-model", path, "-reps", "20000", "-seed", "3"}
	var dense, sparse strings.Builder
	if err := run(context.Background(), args, &dense); err != nil {
		t.Fatalf("dense run: %v", err)
	}
	if err := run(context.Background(), append(args, "-sparse", "-stream"), &sparse); err != nil {
		t.Fatalf("sparse run: %v", err)
	}
	if strings.Contains(dense.String(), "sparse kernel") {
		t.Error("dense output mentions the sparse kernel")
	}
	text := sparse.String()
	for _, want := range []string{"sparse kernel", "streaming aggregation", "Simulated PFD populations"} {
		if !strings.Contains(text, want) {
			t.Errorf("sparse output missing %q:\n%s", want, text)
		}
	}

	// The sparse flag also reaches the rare-event estimators.
	rarePath := writeModel(t, `{"faults": [{"p": 0.003, "q": 0.001}, {"p": 0.003, "q": 0.002}]}`)
	var rare strings.Builder
	if err := run(context.Background(), []string{"-model", rarePath, "-reps", "20000", "-rare", "-sparse"}, &rare); err != nil {
		t.Fatalf("sparse rare run: %v", err)
	}
	if !strings.Contains(rare.String(), "importance sampling") {
		t.Errorf("sparse rare output missing estimator table:\n%s", rare.String())
	}
}

func TestRunMillionFaultsScenario(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("million-fault scenario in -short mode")
	}

	var out strings.Builder
	if err := run(context.Background(), []string{
		"-scenario", "million-faults", "-reps", "20000", "-sparse", "-stream", "-seed", "7",
	}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"Model: million-faults", "sparse kernel", "version fault-free"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}
