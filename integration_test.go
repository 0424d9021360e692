package diversity_test

import (
	"math"
	"testing"

	"diversity"

	"diversity/internal/bayes"
	"diversity/internal/demandspace"
	"diversity/internal/devsim"
	"diversity/internal/elm"
	"diversity/internal/faultmodel"
	"diversity/internal/knightleveson"
	"diversity/internal/montecarlo"
	"diversity/internal/plant"
	"diversity/internal/randx"
	"diversity/internal/scenario"
	"diversity/internal/stats"
	"diversity/internal/system"
)

// TestIntegrationScenarioToAssessment drives the full assessor pipeline:
// scenario generation -> analytic model -> Monte-Carlo validation ->
// empirical percentile bounds -> Bayesian update, checking cross-module
// consistency at every joint.
func TestIntegrationScenarioToAssessment(t *testing.T) {
	t.Parallel()

	sc, err := scenario.CommercialGrade(11)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	fs := sc.FaultSet

	// Analytic moments and their MC counterparts.
	mc, err := montecarlo.Run(montecarlo.Config{
		Process:  devsim.NewIndependentProcess(fs),
		Versions: 2,
		Reps:     150000,
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("montecarlo: %v", err)
	}
	mu2, err := fs.MeanPFD(2)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	gotMu2, err := stats.Mean(mc.SystemPFD)
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if math.Abs(gotMu2-mu2) > 0.001 {
		t.Errorf("system mean: MC %v vs model %v", gotMu2, mu2)
	}

	// The normal-approximation 95% bound must cover ~95% of the MC
	// version PFDs (this scenario has hundreds of contributions? no —
	// 40 faults; allow coarse tolerance).
	bound, err := fs.ConfidenceBoundAt(1, 0.95)
	if err != nil {
		t.Fatalf("ConfidenceBoundAt: %v", err)
	}
	ecdf, err := stats.NewECDF(mc.VersionPFD)
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	if cover := ecdf.At(bound); math.Abs(cover-0.95) > 0.05 {
		t.Errorf("95%% normal bound covers %.3f of the MC sample", cover)
	}

	// Exact lattice distribution agrees with the MC ECDF.
	lat, err := fs.LatticePFD(2, 4096)
	if err != nil {
		t.Fatalf("LatticePFD: %v", err)
	}
	for _, x := range []float64{0.001, 0.005, 0.02, 0.05} {
		if diff := math.Abs(lat.CDF(x) - ecdfAt(t, mc.SystemPFD, x)); diff > 0.01 {
			t.Errorf("lattice vs MC CDF at %v differ by %v", x, diff)
		}
	}

	// Bayesian update from the lattice prior: evidence shifts mass down.
	post, err := bayes.Update(lat, 5000, 0)
	if err != nil {
		t.Fatalf("bayes.Update: %v", err)
	}
	if post.Mean() >= lat.Mean() {
		t.Errorf("posterior mean %v not below prior mean %v", post.Mean(), lat.Mean())
	}
}

func ecdfAt(t *testing.T, xs []float64, x float64) float64 {
	t.Helper()
	e, err := stats.NewECDF(xs)
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	return e.At(x)
}

// TestIntegrationGeometryAgreesWithFaultModel drives versions from the
// development simulator through the geometric demand space and the plant
// DES, and requires all three views of the same pair — fault-level,
// geometric sampling, mission simulation — to agree.
func TestIntegrationGeometryAgreesWithFaultModel(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.5, Q: 0.07}, {P: 0.35, Q: 0.11}, {P: 0.2, Q: 0.05},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	proc := devsim.NewIndependentProcess(fs)
	r := randx.NewStream(17)
	vA, vB := proc.Develop(r), proc.Develop(r)

	// View 1: fault-level.
	faultLevel, err := devsim.CommonPFD(fs, vA, vB)
	if err != nil {
		t.Fatalf("CommonPFD: %v", err)
	}
	// View 2: system package.
	sys, err := system.NewVoted(fs, system.OneOutOfN{}, vA, vB)
	if err != nil {
		t.Fatalf("system.NewVoted: %v", err)
	}
	if math.Abs(sys.PFD()-faultLevel) > 1e-15 {
		t.Errorf("system PFD %v != common PFD %v", sys.PFD(), faultLevel)
	}
	// View 3: geometric sampling.
	layout, err := plant.StripLayout(fs)
	if err != nil {
		t.Fatalf("StripLayout: %v", err)
	}
	chA, err := plant.BuildChannel(layout, vA.Has)
	if err != nil {
		t.Fatalf("BuildChannel: %v", err)
	}
	chB, err := plant.BuildChannel(layout, vB.Has)
	if err != nil {
		t.Fatalf("BuildChannel: %v", err)
	}
	profile, err := demandspace.NewUniformProfile(2)
	if err != nil {
		t.Fatalf("NewUniformProfile: %v", err)
	}
	sim, err := demandspace.SimulatePair(r, profile, chA, chB, 200000)
	if err != nil {
		t.Fatalf("SimulatePair: %v", err)
	}
	if math.Abs(sim.SystemPFD()-faultLevel) > 0.005 {
		t.Errorf("geometric system PFD %v vs fault-level %v", sim.SystemPFD(), faultLevel)
	}
	// View 4: the plant mission.
	mission, err := plant.Run(plant.Config{
		MissionTime: 150000, DemandRate: 1,
		Profile: profile, ChannelA: chA, ChannelB: chB, Seed: 23,
	})
	if err != nil {
		t.Fatalf("plant.Run: %v", err)
	}
	if math.Abs(mission.SystemPFD()-faultLevel) > 0.005 {
		t.Errorf("mission system PFD %v vs fault-level %v", mission.SystemPFD(), faultLevel)
	}
}

// TestIntegrationELBridge checks the EL mapping against both the analytic
// fault model and simulated version populations.
func TestIntegrationELBridge(t *testing.T) {
	t.Parallel()

	sc, err := scenario.SafetyGrade(5)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	el, err := elm.FromFaultSet(sc.FaultSet)
	if err != nil {
		t.Fatalf("FromFaultSet: %v", err)
	}
	r := randx.NewStream(29)
	const reps = 100000
	sum := 0.0
	for i := 0; i < reps; i++ {
		sum += el.SampleVersionPFD(r)
	}
	mu1, err := sc.FaultSet.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	got := sum / reps
	sigma1, err := sc.FaultSet.SigmaPFD(1)
	if err != nil {
		t.Fatalf("SigmaPFD: %v", err)
	}
	if math.Abs(got-mu1) > 5*sigma1/math.Sqrt(reps)+1e-12 {
		t.Errorf("EL sampled mean %v vs model %v", got, mu1)
	}
}

// TestIntegrationKnightLevesonUsesModelMachinery ties the KL replica's
// outcomes back to the model: the population statistics it reports must
// match what the underlying fault set predicts.
func TestIntegrationKnightLevesonUsesModelMachinery(t *testing.T) {
	t.Parallel()

	fs, err := knightleveson.DefaultFaultSet()
	if err != nil {
		t.Fatalf("DefaultFaultSet: %v", err)
	}
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	// Average the replica's sample mean over many seeds: it must
	// approach the model's µ1.
	var acc stats.Moments
	for seed := uint64(0); seed < 60; seed++ {
		out, err := knightleveson.Run(knightleveson.Config{Seed: seed})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		acc.Add(out.VersionStats.Mean)
	}
	if math.Abs(acc.Mean()-mu1) > 0.2*mu1 {
		t.Errorf("replica population mean %v vs model µ1 %v", acc.Mean(), mu1)
	}
}

// TestIntegrationPublicFacadeCoversInternalPaths sanity-checks that the
// re-exported facade values are the same objects as the internal ones.
func TestIntegrationPublicFacadeCoversInternalPaths(t *testing.T) {
	t.Parallel()

	fs, err := diversity.Uniform(4, 0.2, 0.05)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	// A facade FaultSet is usable with internal packages directly (type
	// alias, not a wrapper).
	var internalSet *faultmodel.FaultSet = fs
	mu, err := internalSet.MeanPFD(2)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	want := 4 * 0.04 * 0.05
	if math.Abs(mu-want) > 1e-15 {
		t.Errorf("µ2 = %v, want %v", mu, want)
	}
}
