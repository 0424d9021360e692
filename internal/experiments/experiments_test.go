package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/scenario"
)

func TestRegistryComplete(t *testing.T) {
	t.Parallel()

	ids := IDs()
	if len(ids) != 25 {
		t.Fatalf("registry has %d experiments, want 25: %v", len(ids), ids)
	}
	for i := 1; i <= 25; i++ {
		want := fmt.Sprintf("E%02d", i)
		found := false
		for _, id := range ids {
			if id == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("experiment %s not registered", want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	t.Parallel()

	if _, err := Run("E99", Config{}); err == nil {
		t.Error("unknown experiment succeeded, want error")
	}
}

// TestAllExperimentsPass runs the entire suite in quick mode and requires
// every paper-vs-measured check to pass. This is the repository's primary
// reproduction gate.
func TestAllExperimentsPass(t *testing.T) {
	t.Parallel()

	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id, Config{Seed: 1, Quick: true})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.ID != id {
				t.Errorf("result ID = %q, want %q", res.ID, id)
			}
			if res.Title == "" {
				t.Error("result has no title")
			}
			if res.Text == "" {
				t.Error("result has no rendered text")
			}
			if len(res.Checks) == 0 {
				t.Fatal("experiment performed no checks")
			}
			for _, c := range res.Checks {
				if c.Name == "" || c.Paper == "" || c.Measured == "" {
					t.Errorf("incomplete check: %+v", c)
				}
				if !c.Pass {
					t.Errorf("check failed: %s\n  paper:    %s\n  measured: %s", c.Name, c.Paper, c.Measured)
				}
			}
			if !res.Passed() {
				t.Error("Passed() = false")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	t.Parallel()

	// The suite must be exactly reproducible for a fixed seed.
	a, err := Run("E04", Config{Seed: 7, Quick: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run("E04", Config{Seed: 7, Quick: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Text != b.Text {
		t.Error("identical seeds produced different experiment text")
	}
}

func TestResultSummaryFormat(t *testing.T) {
	t.Parallel()

	res := &Result{
		ID:    "EXX",
		Title: "demo",
		Checks: []Check{
			{Name: "good", Paper: "p", Measured: "m", Pass: true},
			{Name: "bad", Paper: "p", Measured: "m", Pass: false},
		},
	}
	s := res.Summary()
	if !strings.Contains(s, "[PASS] good") || !strings.Contains(s, "[FAIL] bad") {
		t.Errorf("summary missing statuses:\n%s", s)
	}
	if res.Passed() {
		t.Error("Passed() = true with a failing check")
	}
}

// TestRunAll runs the whole suite in quick mode, in the order the
// engine's experiments jobs walk it: IDs() ascending.
func TestRunAll(t *testing.T) {
	t.Parallel()

	ids := IDs()
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Errorf("IDs out of order: %s before %s", ids[i-1], id)
		}
		res, err := RunContext(context.Background(), id, Config{Seed: 2, Quick: true})
		if err != nil {
			t.Fatalf("RunContext(%s): %v", id, err)
		}
		if res.ID != id {
			t.Errorf("RunContext(%s) returned result %s", id, res.ID)
		}
	}
}

func TestConfigReps(t *testing.T) {
	t.Parallel()

	full := Config{}
	if got := full.reps(100000); got != 100000 {
		t.Errorf("full reps = %d, want 100000", got)
	}
	quick := Config{Quick: true}
	if got := quick.reps(100000); got != 10000 {
		t.Errorf("quick reps = %d, want 10000", got)
	}
	// Quick never goes below 1000 (or the full count if smaller).
	if got := quick.reps(5000); got != 1000 {
		t.Errorf("quick reps of 5000 = %d, want 1000", got)
	}
	if got := quick.reps(500); got != 500 {
		t.Errorf("quick reps of 500 = %d, want 500", got)
	}
}

// TestE01RejectsMisspecifiedModel: E01's moment check must have power,
// not only a low false-alarm rate. At quick-mode replications it accepts
// the model that generated the sample and rejects the same model with
// every q scaled by 1.05 — a 5% error in every PFD moment.
func TestE01RejectsMisspecifiedModel(t *testing.T) {
	t.Parallel()

	const factor = 1.05
	reps := Config{Quick: true}.reps(200000)
	for _, name := range []string{"commercial-grade", "many-small-faults"} {
		sc, err := scenario.ByName(name, 1)
		if err != nil {
			t.Fatalf("scenario %s: %v", name, err)
		}
		faults := sc.FaultSet.Faults()
		for i := range faults {
			faults[i].Q *= factor
		}
		wrong, err := faultmodel.New(faults)
		if err != nil {
			t.Fatalf("scaled %s: %v", name, err)
		}
		mc, err := montecarlo.Run(montecarlo.Config{
			Process: devsim.NewIndependentProcess(sc.FaultSet), Versions: 2, Reps: reps, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		vsum, err := mc.VersionSummary()
		if err != nil {
			t.Fatalf("%s: VersionSummary: %v", name, err)
		}
		for _, tc := range []struct {
			fs   *faultmodel.FaultSet
			want bool
		}{{sc.FaultSet, true}, {wrong, false}} {
			_, _, got, err := momentsAgree(tc.fs, 1, vsum)
			if err != nil {
				t.Fatalf("%s: momentsAgree: %v", name, err)
			}
			if got != tc.want {
				t.Errorf("%s: momentsAgree = %v against the model with q scaled by %v, want %v",
					name, got, tc.fs.SumQ()/sc.FaultSet.SumQ(), tc.want)
			}
		}
	}
}
