package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeModel(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestRunWithModelFile(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"name": "unit", "faults": [{"p": 0.1, "q": 0.01}, {"p": 0.05, "q": 0.02}]}`)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"Model: unit", "PFD moments", "eq (4)", "formula (11)", "formula (12)",
		"risk ratio", "99% confidence",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunWithScenario(t *testing.T) {
	t.Parallel()

	for _, name := range []string{"safety-grade", "many-small-faults", "commercial-grade"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			if err := run(context.Background(), []string{"-scenario", name}, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !strings.Contains(out.String(), "Model: "+name) {
				t.Errorf("output missing scenario name:\n%s", out.String())
			}
		})
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
	if err := run(context.Background(), []string{"-model", "x", "-scenario", "safety-grade"}, &out); err == nil {
		t.Error("both -model and -scenario succeeded, want error")
	}
	if err := run(context.Background(), []string{"-model", filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Error("missing model file succeeded, want error")
	}
	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.01}]}`)
	if err := run(context.Background(), []string{"-model", path, "-confidence", "0.3"}, &out); err == nil {
		t.Error("confidence below the median succeeded, want error")
	}
}

func TestRunCustomK(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.01}]}`)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-k", "2.33"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "mu+2.3*sigma") {
		t.Errorf("output does not reflect custom k:\n%s", out.String())
	}
}

func TestRunWithAdjudicator(t *testing.T) {
	t.Parallel()

	// An imperfect stage of PFD 1e-4 over this model totals 0.0011 for one
	// version and 2.000e-04 for the pair, a total gain of 5.49977: the
	// values the stage table printed before the stage became part of the
	// voting rule.
	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.01}]}`)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-adjudicator", "1oon@1e-4"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := strings.Join(strings.Fields(out.String()), " ")
	for _, want := range []string{
		"(2 versions, 1oon@0.0001 adjudication)",
		"mean system PFD (k-of-N eq 1) 2.000e-04 0.0011",
		"mean gain vs 1 version 5.49977",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if err := run(context.Background(), []string{"-model", path, "-adjudicator", "1oon@2"}, &out); err == nil {
		t.Error("invalid adjudicator stage PFD succeeded, want error")
	}
}

// TestFlagValidation checks that invalid flag combinations fail with a
// clear error before any computation starts.
func TestFlagValidation(t *testing.T) {
	t.Parallel()

	path := writeModel(t, `{"faults": [{"p": 0.1, "q": 0.01}]}`)
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"no model", nil, "a model is required"},
		{"both model and scenario", []string{"-model", path, "-scenario", "safety-grade"}, "not both"},
		{"unknown scenario", []string{"-scenario", "bogus"}, `unknown scenario "bogus"`},
		{"negative k", []string{"-model", path, "-k", "-1"}, "must be non-negative"},
		{"adjudicator stage PFD above one", []string{"-model", path, "-adjudicator", "1oon@2"}, "must be a probability"},
		{"negative adjudicator stage PFD", []string{"-model", path, "-adjudicator", "1oon@-0.5"}, "must be a probability"},
		{"unknown adjudicator", []string{"-model", path, "-adjudicator", "sideways"}, "unknown adjudicator"},
		{"adjudicator pool too small", []string{"-model", path, "-adjudicator", "majority", "-versions", "2"}, "cannot vote over 2 versions"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			err := run(context.Background(), tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.wantSub)
			}
		})
	}
}

func TestRunMonteCarloCrossCheck(t *testing.T) {
	t.Parallel()

	var out strings.Builder
	if err := run(context.Background(), []string{"-scenario", "commercial-grade", "-mc", "4000"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"Monte-Carlo cross-check (4000 replications, buffered aggregation)",
		"mean PFD, 1 version", "std dev, 1-out-of-2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run(context.Background(), []string{"-scenario", "commercial-grade", "-mc", "4000", "-stream"}, &out); err != nil {
		t.Fatalf("run -stream: %v", err)
	}
	if !strings.Contains(out.String(), "streaming aggregation") {
		t.Errorf("streaming cross-check not labelled:\n%s", out.String())
	}

	if err := run(context.Background(), []string{"-scenario", "commercial-grade", "-mc", "-1"}, &out); err == nil {
		t.Error("negative -mc accepted, want error")
	}
}

func TestRunSparseCrossCheck(t *testing.T) {
	t.Parallel()

	var out strings.Builder
	if err := run(context.Background(), []string{"-scenario", "commercial-grade", "-mc", "4000", "-sparse"}, &out); err != nil {
		t.Fatalf("run -sparse: %v", err)
	}
	if !strings.Contains(out.String(), "sparse kernel") {
		t.Errorf("sparse cross-check not labelled:\n%s", out.String())
	}
}
