package montecarlo

import (
	"fmt"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/stats"
	"diversity/internal/system"
)

// lawFaults returns the gate's 10-fault universe, with fault 9's presence
// probability scaled by pScale. Region probabilities q_i = 2^-(i+2) make
// every subset sum an exact float64 with at most 10 significant bits, so
// any summation order gives the same value and a sampled PFD equals the
// exact law's atom by ==. The even and the odd faults share presence
// probabilities 0.15 and 0.6, two interleaved groups of five that the
// sparse kernel skip-samples rather than drawing fault by fault.
func lawFaults(t *testing.T, pScale float64) *faultmodel.FaultSet {
	t.Helper()
	faults := make([]faultmodel.Fault, 10)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: 0.15 + 0.45*float64(i%2), Q: 1 / float64(uint64(4)<<i)}
	}
	faults[9].P *= pScale
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

// exactLaw returns the exact PFD law of an independent-process pool: fault
// i reaches the system independently with probability
// system.DefeatProbability(adj, versions, p_i), so the law is ExactPFD(1)
// of the fault set with those presence probabilities, each atom mapped
// through the imperfect stage. versions = 1 under 1-out-of-1 is the
// version law.
func exactLaw(t *testing.T, fs *faultmodel.FaultSet, adj system.Adjudicator, versions int) (atoms, probs []float64) {
	t.Helper()
	faults := make([]faultmodel.Fault, fs.N())
	for i := range faults {
		f := fs.Fault(i)
		faults[i] = faultmodel.Fault{P: system.DefeatProbability(adj, versions, f.P), Q: f.Q}
	}
	defeat, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	law, err := defeat.ExactPFD(1)
	if err != nil {
		t.Fatalf("ExactPFD: %v", err)
	}
	atoms, probs = law.Support()
	for i, a := range atoms {
		atoms[i] = system.ApplyStagePFD(adj, a)
	}
	return atoms, probs
}

// lawPValue tests sampled PFDs against an exact law by a chi-square test
// over its atoms, pooled left to right to expected counts of at least 5.
// A sample that is not an atom of the law fails the test outright.
func lawPValue(t *testing.T, sample, atoms, probs []float64) float64 {
	t.Helper()
	index := make(map[float64]int, len(atoms))
	for i, a := range atoms {
		index[a] = i
	}
	observed := make([]int, len(atoms))
	for _, x := range sample {
		i, ok := index[x]
		if !ok {
			t.Fatalf("sampled PFD %v is not an atom of the exact law", x)
		}
		observed[i]++
	}
	expected := make([]float64, len(probs))
	for i, p := range probs {
		expected[i] = p * float64(len(sample))
	}
	res, err := stats.ChiSquareTest(observed, expected, 0)
	if err != nil {
		t.Fatalf("ChiSquareTest: %v", err)
	}
	return res.PValue
}

// TestSampledLawMatchesExactLaw is a distribution-level gate on every
// kernel: the version and system PFDs a run samples from the independent
// process must pass a chi-square test against the exact law, under 1oo2,
// 2oo3 and 1oo2 with an imperfect stage, for the fault-major row kernel,
// the sparse kernel and the per-column DevelopInto kernel (reached through
// a process that hides both extensions). Bit pins only freeze what a
// kernel does; this checks that it samples the paper's law.
//
// Each of the 18 cells tests at α = 1e-3, so a correct set of kernels
// fails the suite at a random seed with probability at most 1.8% (the
// Bonferroni bound); the seed is fixed, so the outcome is deterministic.
// The power case tests the same samples against the law with fault 9's
// p scaled by 1.05, which every system cell must reject.
func TestSampledLawMatchesExactLaw(t *testing.T) {
	t.Parallel()

	const reps, alpha = 200000, 1e-3
	fs := lawFaults(t, 1)
	perturbed := lawFaults(t, 1.05)
	proc := devsim.NewIndependentProcess(fs)
	kernels := []struct {
		name string
		cfg  Config
	}{
		{"rows", Config{Process: proc}},
		{"sparse", Config{Process: proc, Sparse: true}},
		{"per-column", Config{Process: opaqueProcess{inner: proc}}},
	}
	versionAtoms, versionProbs := exactLaw(t, fs, system.OneOutOfN{}, 1)
	for _, rule := range []string{"1oo2", "2oo3", "1oo2@1e-4"} {
		adj, err := system.ParseAdjudicator(rule)
		if err != nil {
			t.Fatalf("ParseAdjudicator(%q): %v", rule, err)
		}
		versions := 2
		if rule == "2oo3" {
			versions = 3
		}
		atoms, probs := exactLaw(t, fs, adj, versions)
		wrongAtoms, wrongProbs := exactLaw(t, perturbed, adj, versions)
		for _, k := range kernels {
			cfg := k.cfg
			cfg.Versions, cfg.Adjudicator, cfg.Reps, cfg.Seed = versions, adj, reps, 5
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", k.name, rule, err)
			}
			label := fmt.Sprintf("%s/%s", k.name, rule)
			if p := lawPValue(t, res.VersionPFD, versionAtoms, versionProbs); p < alpha {
				t.Errorf("%s version PFD: chi-square p = %.3g < %g against the exact law", label, p, alpha)
			}
			if p := lawPValue(t, res.SystemPFD, atoms, probs); p < alpha {
				t.Errorf("%s system PFD: chi-square p = %.3g < %g against the exact law", label, p, alpha)
			}
			if p := lawPValue(t, res.SystemPFD, wrongAtoms, wrongProbs); p >= alpha {
				t.Errorf("%s system PFD: chi-square p = %.3g >= %g against the law with fault 9's p × 1.05; the gate has no power", label, p, alpha)
			}
		}
	}
}
