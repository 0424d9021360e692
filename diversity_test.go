package diversity_test

import (
	"math"
	"testing"

	"diversity"
)

// TestPublicAPIAssessorWorkflow walks the paper's Section-5 assessor
// workflow end to end through the public facade only.
func TestPublicAPIAssessorWorkflow(t *testing.T) {
	t.Parallel()

	fs, err := diversity.New([]diversity.Fault{
		{P: 0.1, Q: 0.002},
		{P: 0.05, Q: 0.004},
		{P: 0.02, Q: 0.001},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	sigma1, err := fs.SigmaPFD(1)
	if err != nil {
		t.Fatalf("SigmaPFD: %v", err)
	}
	bound2, err := diversity.TwoVersionBoundFromMoments(mu1, sigma1, fs.PMax(), 1)
	if err != nil {
		t.Fatalf("TwoVersionBoundFromMoments: %v", err)
	}
	exact2, err := fs.ConfidenceBound(2, 1)
	if err != nil {
		t.Fatalf("ConfidenceBound: %v", err)
	}
	if exact2 > bound2 {
		t.Errorf("formula (11) bound %v below the exact expression %v", bound2, exact2)
	}
	loose, err := diversity.TwoVersionBoundFromBound(mu1+sigma1, fs.PMax())
	if err != nil {
		t.Fatalf("TwoVersionBoundFromBound: %v", err)
	}
	if bound2 > loose {
		t.Errorf("formula (11) bound %v above formula (12) bound %v", bound2, loose)
	}
}

func TestPublicAPIMonteCarlo(t *testing.T) {
	t.Parallel()

	fs, err := diversity.Uniform(10, 0.1, 0.01)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	res, err := diversity.MonteCarlo(diversity.MonteCarloConfig{
		Process:  diversity.NewIndependentProcess(fs),
		Versions: 2,
		Reps:     20000,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	ratioModel, err := fs.RiskRatio()
	if err != nil {
		t.Fatalf("RiskRatio: %v", err)
	}
	ratioMC, err := res.RiskRatio()
	if err != nil {
		t.Fatalf("MC RiskRatio: %v", err)
	}
	if math.Abs(ratioModel-ratioMC) > 0.05 {
		t.Errorf("MC ratio %v far from model %v", ratioMC, ratioModel)
	}
}

func TestPublicAPIBayes(t *testing.T) {
	t.Parallel()

	sc, err := diversity.SafetyGradeScenario(3)
	if err != nil {
		t.Fatalf("SafetyGradeScenario: %v", err)
	}
	prior, err := diversity.PriorFromModel(sc.FaultSet, 1024)
	if err != nil {
		t.Fatalf("PriorFromModel: %v", err)
	}
	post, err := diversity.UpdatePrior(prior, 100000, 0)
	if err != nil {
		t.Fatalf("UpdatePrior: %v", err)
	}
	if post.Mean() >= prior.Mean() {
		t.Errorf("posterior mean %v not below prior mean %v after clean operation", post.Mean(), prior.Mean())
	}
}

func TestPublicAPIConstants(t *testing.T) {
	t.Parallel()

	// The paper prints the threshold as 0.618033987 (9 decimals).
	if math.Abs(diversity.GoldenThreshold-0.618033987) > 1e-8 {
		t.Errorf("GoldenThreshold = %v", diversity.GoldenThreshold)
	}
	if got := (diversity.OneOutOfN{}).Name(); got != "1oon" {
		t.Errorf("OneOutOfN name = %q", got)
	}
	if diversity.TrendReducesGain.String() == "" {
		t.Error("trend label empty")
	}
}

func TestPublicAPIScenarios(t *testing.T) {
	t.Parallel()

	for name, gen := range map[string]func(uint64) (diversity.Scenario, error){
		"safety":     diversity.SafetyGradeScenario,
		"many":       diversity.ManySmallFaultsScenario,
		"commercial": diversity.CommercialGradeScenario,
	} {
		sc, err := gen(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.FaultSet == nil || sc.Name == "" {
			t.Errorf("%s scenario incomplete", name)
		}
	}
}

func TestPublicAPIStationaryPoint(t *testing.T) {
	t.Parallel()

	p1z, err := diversity.TwoFaultStationaryP1(0.1)
	if err != nil {
		t.Fatalf("TwoFaultStationaryP1: %v", err)
	}
	if p1z <= 0 || p1z >= 0.1 {
		t.Errorf("stationary point %v outside (0, p2)", p1z)
	}
	factor, err := diversity.SigmaBoundFactor(0.01)
	if err != nil {
		t.Fatalf("SigmaBoundFactor: %v", err)
	}
	if math.Abs(factor-0.1) > 0.001 {
		t.Errorf("SigmaBoundFactor(0.01) = %v, want ~0.100 (paper table)", factor)
	}
}
