package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diversity/internal/engine"
	"diversity/internal/scenario"
)

func TestJobModel(t *testing.T) {
	t.Parallel()

	path := filepath.Join(t.TempDir(), "model.json")
	doc := `{"name": "demo", "faults": [{"p": 0.1, "q": 0.02}, {"p": 0.3, "q": 0.01}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	t.Run("model file inlined", func(t *testing.T) {
		spec, err := JobModel(path, "", 1)
		if err != nil {
			t.Fatalf("JobModel: %v", err)
		}
		if spec.Name != "demo" || len(spec.Faults) != 2 || spec.Scenario != "" {
			t.Errorf("spec = %+v, want inline demo model", spec)
		}
		if spec.Faults[0].P != 0.1 || spec.Faults[0].Q != 0.02 {
			t.Errorf("fault parameters not preserved: %+v", spec.Faults)
		}
	})

	t.Run("scenario by reference", func(t *testing.T) {
		spec, err := JobModel("", "safety-grade", 7)
		if err != nil {
			t.Fatalf("JobModel: %v", err)
		}
		want := engine.ModelSpec{Scenario: "safety-grade", ScenarioSeed: 7}
		if spec.Scenario != want.Scenario || spec.ScenarioSeed != want.ScenarioSeed || spec.Faults != nil {
			t.Errorf("spec = %+v, want %+v", spec, want)
		}
	})

	t.Run("both flags rejected", func(t *testing.T) {
		if _, err := JobModel(path, "safety-grade", 1); err == nil || !strings.Contains(err.Error(), "not both") {
			t.Errorf("err = %v, want not-both error", err)
		}
	})

	t.Run("neither flag rejected", func(t *testing.T) {
		if _, err := JobModel("", "", 1); err == nil || !strings.Contains(err.Error(), "model is required") {
			t.Errorf("err = %v, want model-required error", err)
		}
	})

	t.Run("unknown scenario rejected", func(t *testing.T) {
		_, want := scenario.ByName("bogus", 1)
		if _, err := JobModel("", "bogus", 1); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("err = %v, want the scenario package's error %v", err, want)
		}
	})

	t.Run("missing model file", func(t *testing.T) {
		if _, err := JobModel(filepath.Join(t.TempDir(), "absent.json"), "", 1); err == nil {
			t.Error("missing model file succeeded, want error")
		}
	})
}

func TestValidateCounts(t *testing.T) {
	t.Parallel()

	cases := []struct {
		name          string
		reps, workers int
		wantErr       string
	}{
		{"valid", 1000, 4, ""},
		{"zero workers means all cores", 1000, 0, ""},
		{"zero reps", 0, 4, "at least 1"},
		{"negative reps", -5, 4, "at least 1"},
		{"negative workers", 1000, -1, "must not be negative"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			err := ValidateCounts(tc.reps, tc.workers)
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("ValidateCounts(%d, %d) = %v, want nil", tc.reps, tc.workers, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ValidateCounts(%d, %d) = %v, want error containing %q", tc.reps, tc.workers, err, tc.wantErr)
			}
		})
	}
}

func TestProgressPrinter(t *testing.T) {
	t.Parallel()

	var sb strings.Builder
	hook := ProgressPrinter(&sb)
	for done := 0; done <= 100; done += 5 {
		hook(engine.Progress{Stage: "replications", Done: done, Total: 100})
	}
	hook(engine.Progress{Stage: "done"})

	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 11 decile lines (0%..100%) plus one total-less stage line.
	if len(lines) != 12 {
		t.Fatalf("got %d lines, want 12:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "replications   0% (0/100)") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[10], "100% (100/100)") {
		t.Errorf("final decile line = %q", lines[10])
	}
	if lines[11] != "progress: done" {
		t.Errorf("stage line = %q", lines[11])
	}
}
