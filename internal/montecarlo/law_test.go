package montecarlo

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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
// the sparse kernel and Develop (one-lane developments scored by
// system.NewVoted, as the experiments use them). Bit pins only freeze
// what a kernel does; this checks that it samples the paper's law.
//
// Each of the 18 cells here and the 12 of TestCorrelatedLawsMatchExactLaws
// tests at α = 1e-3, so correct kernels fail the 30-cell gate at a random
// seed with probability at most 3% (the Bonferroni bound); the seed is
// fixed, so the outcome is deterministic. The power case tests the same
// samples against the law with fault 9's p scaled by 1.05, which every
// system cell must reject.
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
		{"Develop", Config{}},
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
			label := fmt.Sprintf("%s/%s", k.name, rule)
			vpfd, spfd := lawSample(t, label, proc, k.cfg, adj, versions, reps)
			if p := lawPValue(t, vpfd, versionAtoms, versionProbs); p < alpha {
				t.Errorf("%s version PFD: chi-square p = %.3g < %g against the exact law", label, p, alpha)
			}
			if p := lawPValue(t, spfd, atoms, probs); p < alpha {
				t.Errorf("%s system PFD: chi-square p = %.3g < %g against the exact law", label, p, alpha)
			}
			if p := lawPValue(t, spfd, wrongAtoms, wrongProbs); p >= alpha {
				t.Errorf("%s system PFD: chi-square p = %.3g >= %g against the law with fault 9's p × 1.05; the gate has no power", label, p, alpha)
			}
		}
	}
}

// lawSample draws the gate's sample at seed 5: a Run of cfg, or, when
// cfg has no process, reps replications developed with proc's Develop
// and scored by system.NewVoted.
func lawSample(t *testing.T, label string, proc developer, cfg Config, adj system.Adjudicator, versions, reps int) (vpfd, spfd []float64) {
	t.Helper()
	const seed = 5
	if cfg.Process == nil {
		ref := versionReference(t, proc, adj, versions, reps, seed)
		return ref.v, ref.s
	}
	cfg.Versions, cfg.Adjudicator, cfg.Reps, cfg.Seed = versions, adj, reps, seed
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res.VersionPFD, res.SystemPFD
}

// productLaw returns P(S) for every subset S of independent faults with
// presence probabilities pi, indexed by S with bit i standing for fault i.
func productLaw(pi []float64) []float64 {
	law := make([]float64, 1<<len(pi))
	for s := range law {
		pr := 1.0
		for i, p := range pi {
			pr *= bern(p, s>>i&1 == 1)
		}
		law[s] = pr
	}
	return law
}

// commonCauseLaw is the version law of devsim.NewCommonCauseProcess(fs,
// rho, boost): a rho-mixture of the bad-day and good-day products.
func commonCauseLaw(fs *faultmodel.FaultSet, rho, boost float64) []float64 {
	hi, lo := make([]float64, fs.N()), make([]float64, fs.N())
	for i := range hi {
		p := fs.Fault(i).P
		hi[i] = min(1, p*boost)
		lo[i] = (p - rho*hi[i]) / (1 - rho)
	}
	law, loLaw := productLaw(hi), productLaw(lo)
	for s := range law {
		law[s] = rho*law[s] + (1-rho)*loLaw[s]
	}
	return law
}

// resourceShiftLaw is the version law of devsim.NewResourceShiftProcess
// over an even universe: pairs (0,1), (2,3), ... are independent, and
// each pair mixes its two favoured/neglected products over a fair coin.
func resourceShiftLaw(fs *faultmodel.FaultSet, shift float64) []float64 {
	law := make([]float64, 1<<fs.N())
	for s := range law {
		pr := 1.0
		for a := 0; a+1 < fs.N(); a += 2 {
			pa, pb := fs.Fault(a).P, fs.Fault(a+1).P
			xa, xb := s>>a&1 == 1, s>>(a+1)&1 == 1
			pr *= 0.5*bern(pa*(1-shift), xa)*bern(pb*(1+shift), xb) +
				0.5*bern(pa*(1+shift), xa)*bern(pb*(1-shift), xb)
		}
		law[s] = pr
	}
	return law
}

// tiedPairsLaw is the version law of devsim.NewTiedPairsProcess(fs,
// pairs): each pair shares one coin at its smaller index's probability,
// so a subset that splits a pair is impossible.
func tiedPairsLaw(fs *faultmodel.FaultSet, pairs [][2]int) []float64 {
	partner := make(map[int]int)
	for _, pr := range pairs {
		partner[max(pr[0], pr[1])] = min(pr[0], pr[1])
	}
	law := make([]float64, 1<<fs.N())
	for s := range law {
		pr := 1.0
		for i := 0; i < fs.N(); i++ {
			x := s>>i&1 == 1
			if d, ok := partner[i]; ok {
				if x != (s>>d&1 == 1) {
					pr = 0
				}
				continue
			}
			pr *= bern(fs.Fault(i).P, x)
		}
		law[s] = pr
	}
	return law
}

// bern is the probability that a Bernoulli(p) variable takes value x.
func bern(p float64, x bool) float64 {
	if x {
		return p
	}
	return 1 - p
}

// subsetPFDLaw maps a law over fault subsets to the PFD law of a version
// (versions = 1) or of a 1-out-of-2 pool of two independent versions,
// whose system carries exactly the faults both versions carry. Distinct
// subsets of the gate's universe have distinct PFDs (q_i = 2^-(i+2)), so
// each subset is one atom; atoms come back in ascending order.
func subsetPFDLaw(fs *faultmodel.FaultSet, law []float64, versions int) (atoms, probs []float64) {
	if versions == 2 {
		sys := make([]float64, len(law))
		for a, pa := range law {
			for b, pb := range law {
				sys[a&b] += pa * pb
			}
		}
		law = sys
	}
	order := make([]int, len(law))
	pfd := make([]float64, len(law))
	for s := range law {
		order[s] = s
		for m := uint(s); m != 0; m &= m - 1 {
			pfd[s] += fs.Fault(bits.TrailingZeros(m)).Q
		}
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(pfd[a], pfd[b]) })
	for _, s := range order {
		atoms = append(atoms, pfd[s])
		probs = append(probs, law[s])
	}
	return atoms, probs
}

// TestCorrelatedLawsMatchExactLaws extends the gate of
// TestSampledLawMatchesExactLaw to the three correlated processes on the
// same universe. Each law is computed here by enumerating the 2^10 fault
// subsets, independently of the kernels, and the 1oo2 system law by
// pairing two independent versions. Every process is sampled by the
// fault-major row kernel and by Develop (one-lane developments scored by
// system.NewVoted); version and system PFDs must each pass at α = 1e-3. The power case tests each
// process's system samples against its law on the universe with fault
// 9's p scaled by 1.05.
func TestCorrelatedLawsMatchExactLaws(t *testing.T) {
	t.Parallel()

	const reps, alpha = 200000, 1e-3
	const rho, boost, shift = 0.3, 1.5, 0.5
	pairs := [][2]int{{0, 3}, {6, 5}}
	processes := []struct {
		name  string
		build func(fs *faultmodel.FaultSet) (developer, []float64, error)
	}{
		{"common-cause", func(fs *faultmodel.FaultSet) (developer, []float64, error) {
			p, err := devsim.NewCommonCauseProcess(fs, rho, boost)
			return p, commonCauseLaw(fs, rho, boost), err
		}},
		{"resource-shift", func(fs *faultmodel.FaultSet) (developer, []float64, error) {
			p, err := devsim.NewResourceShiftProcess(fs, shift)
			return p, resourceShiftLaw(fs, shift), err
		}},
		{"tied-pairs", func(fs *faultmodel.FaultSet) (developer, []float64, error) {
			p, err := devsim.NewTiedPairsProcess(fs, pairs)
			return p, tiedPairsLaw(fs, pairs), err
		}},
	}
	fs := lawFaults(t, 1)
	perturbed := lawFaults(t, 1.05)
	adj := system.OneOutOfN{}
	for _, pc := range processes {
		proc, law, err := pc.build(fs)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		_, wrongLaw, err := pc.build(perturbed)
		if err != nil {
			t.Fatalf("%s perturbed: %v", pc.name, err)
		}
		versionAtoms, versionProbs := subsetPFDLaw(fs, law, 1)
		atoms, probs := subsetPFDLaw(fs, law, 2)
		wrongAtoms, wrongProbs := subsetPFDLaw(fs, wrongLaw, 2)
		for _, k := range []struct {
			name string
			cfg  Config
		}{
			{"rows", Config{Process: proc}},
			{"Develop", Config{}},
		} {
			label := pc.name + "/" + k.name
			vpfd, spfd := lawSample(t, label, proc, k.cfg, adj, 2, reps)
			if p := lawPValue(t, vpfd, versionAtoms, versionProbs); p < alpha {
				t.Errorf("%s version PFD: chi-square p = %.3g < %g against the exact law", label, p, alpha)
			}
			if p := lawPValue(t, spfd, atoms, probs); p < alpha {
				t.Errorf("%s system PFD: chi-square p = %.3g < %g against the exact law", label, p, alpha)
			}
			if p := lawPValue(t, spfd, wrongAtoms, wrongProbs); p >= alpha {
				t.Errorf("%s system PFD: chi-square p = %.3g >= %g against the law with fault 9's p × 1.05; the gate has no power", label, p, alpha)
			}
		}
	}
}
