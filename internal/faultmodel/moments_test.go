package faultmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// randomFaultSet derives a valid fault set from arbitrary fuzz bytes; used
// by the property-based tests. Returns nil when fewer than one fault can
// be formed.
func randomFaultSet(raw []byte) *FaultSet {
	if len(raw) < 2 {
		return nil
	}
	n := len(raw) / 2
	if n > 12 {
		n = 12
	}
	faults := make([]Fault, n)
	for i := 0; i < n; i++ {
		faults[i] = Fault{
			P: float64(raw[2*i]) / 255,
			Q: float64(raw[2*i+1]) / 255 / float64(n), // keep Σq <= 1
		}
	}
	fs, err := New(faults)
	if err != nil {
		return nil
	}
	return fs
}

func TestMeanPFDHandComputed(t *testing.T) {
	t.Parallel()

	// Equation (1) with three faults, worked by hand.
	fs := mustNew(t, []Fault{{P: 0.3, Q: 0.1}, {P: 0.5, Q: 0.2}, {P: 0.1, Q: 0.05}})
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD(1): %v", err)
	}
	want1 := 0.3*0.1 + 0.5*0.2 + 0.1*0.05 // 0.135
	if !almostEqual(mu1, want1, 1e-15) {
		t.Errorf("µ1 = %v, want %v", mu1, want1)
	}
	mu2, err := fs.MeanPFD(2)
	if err != nil {
		t.Fatalf("MeanPFD(2): %v", err)
	}
	want2 := 0.09*0.1 + 0.25*0.2 + 0.01*0.05 // 0.0595
	if !almostEqual(mu2, want2, 1e-15) {
		t.Errorf("µ2 = %v, want %v", mu2, want2)
	}
}

func TestVarPFDHandComputed(t *testing.T) {
	t.Parallel()

	// Equation (2): Var = Σ p(1-p)q² for m=1, Σ p²(1-p²)q² for m=2.
	fs := mustNew(t, []Fault{{P: 0.3, Q: 0.1}, {P: 0.5, Q: 0.2}})
	v1, err := fs.VarPFD(1)
	if err != nil {
		t.Fatalf("VarPFD(1): %v", err)
	}
	want1 := 0.3*0.7*0.01 + 0.5*0.5*0.04
	if !almostEqual(v1, want1, 1e-15) {
		t.Errorf("Var1 = %v, want %v", v1, want1)
	}
	v2, err := fs.VarPFD(2)
	if err != nil {
		t.Fatalf("VarPFD(2): %v", err)
	}
	want2 := 0.09*0.91*0.01 + 0.25*0.75*0.04
	if !almostEqual(v2, want2, 1e-15) {
		t.Errorf("Var2 = %v, want %v", v2, want2)
	}
	s2, err := fs.SigmaPFD(2)
	if err != nil {
		t.Fatalf("SigmaPFD(2): %v", err)
	}
	if !almostEqual(s2, math.Sqrt(want2), 1e-15) {
		t.Errorf("σ2 = %v, want %v", s2, math.Sqrt(want2))
	}
}

// TestKurtosisPFDMatchesExactDistribution holds the cumulant sum to the
// fourth central moment of the exact PFD distribution.
func TestKurtosisPFDMatchesExactDistribution(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.3, Q: 0.1}, {P: 0.5, Q: 0.2}, {P: 0.02, Q: 0.05}})
	for _, m := range []int{1, 2, 3} {
		dist, err := fs.ExactPFD(m)
		if err != nil {
			t.Fatalf("ExactPFD(%d): %v", m, err)
		}
		values, probs := dist.Support()
		mean, variance := dist.Mean(), dist.Variance()
		m4 := 0.0
		for i, v := range values {
			d := v - mean
			m4 += probs[i] * d * d * d * d
		}
		got, err := fs.KurtosisPFD(m)
		if err != nil {
			t.Fatalf("KurtosisPFD(%d): %v", m, err)
		}
		if want := m4/(variance*variance) - 3; !almostEqual(got, want, 1e-9) {
			t.Errorf("m=%d: KurtosisPFD = %v, exact distribution %v", m, got, want)
		}
	}
	if k, err := mustNew(t, []Fault{{P: 1, Q: 0.1}}).KurtosisPFD(1); err != nil || k != 0 {
		t.Errorf("degenerate PFD: KurtosisPFD = (%v, %v), want (0, nil)", k, err)
	}
}

func TestMomentsInvalidM(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.1, Q: 0.1}})
	if _, err := fs.MeanPFD(0); err == nil {
		t.Error("MeanPFD(0) succeeded, want error")
	}
	if _, err := fs.VarPFD(-1); err == nil {
		t.Error("VarPFD(-1) succeeded, want error")
	}
	if _, err := fs.PNoFault(0); err == nil {
		t.Error("PNoFault(0) succeeded, want error")
	}
}

// TestMeanBoundEquation4 verifies the paper's equation (4): µ2 <= pmax·µ1,
// for arbitrary fault sets.
func TestMeanBoundEquation4(t *testing.T) {
	t.Parallel()

	err := quick.Check(func(raw []byte) bool {
		fs := randomFaultSet(raw)
		if fs == nil {
			return true
		}
		mu1, err := fs.MeanPFD(1)
		if err != nil {
			return false
		}
		mu2, err := fs.MeanPFD(2)
		if err != nil {
			return false
		}
		return mu2 <= fs.PMax()*mu1+1e-15
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

// TestELCoincidentFailureInequality verifies that this model reproduces the
// Eckhardt–Lee conclusion E[Θ2] >= E[Θ1]² (versions fail dependently; the
// system is never better than independence would suggest). Follows from
// Cauchy–Schwarz with Σq <= 1.
func TestELCoincidentFailureInequality(t *testing.T) {
	t.Parallel()

	err := quick.Check(func(raw []byte) bool {
		fs := randomFaultSet(raw)
		if fs == nil {
			return true
		}
		mu1, err := fs.MeanPFD(1)
		if err != nil {
			return false
		}
		mu2, err := fs.MeanPFD(2)
		if err != nil {
			return false
		}
		return mu2 >= mu1*mu1-1e-15
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

// TestSigmaOrderingUnderGoldenThreshold verifies Section 3.1.2: σ2 <= σ1
// whenever all p_i <= (sqrt(5)-1)/2.
func TestSigmaOrderingUnderGoldenThreshold(t *testing.T) {
	t.Parallel()

	err := quick.Check(func(raw []byte) bool {
		fs := randomFaultSet(raw)
		if fs == nil || !fs.SigmaBoundHolds() {
			return true
		}
		s1, err := fs.SigmaPFD(1)
		if err != nil {
			return false
		}
		s2, err := fs.SigmaPFD(2)
		if err != nil {
			return false
		}
		return s2 <= s1+1e-15
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

// TestSigmaCanExceedAboveThreshold exhibits the paper's boundary: with
// p above the golden threshold, σ2 can exceed σ1.
func TestSigmaCanExceedAboveThreshold(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.8, Q: 0.5}})
	s1, err := fs.SigmaPFD(1)
	if err != nil {
		t.Fatalf("SigmaPFD(1): %v", err)
	}
	s2, err := fs.SigmaPFD(2)
	if err != nil {
		t.Fatalf("SigmaPFD(2): %v", err)
	}
	// p=0.8: p(1-p)=0.16, p²(1-p²)=0.64*0.36=0.2304 > 0.16.
	if s2 <= s1 {
		t.Errorf("expected σ2 > σ1 for p=0.8, got σ1=%v σ2=%v", s1, s2)
	}
}

// TestGoldenThresholdIsBoundary pins the threshold value itself:
// p²(1-p²) = p(1-p) exactly at p = (sqrt(5)-1)/2.
func TestGoldenThresholdIsBoundary(t *testing.T) {
	t.Parallel()

	p := GoldenThreshold
	left := p * p * (1 - p*p)
	right := p * (1 - p)
	if !almostEqual(left, right, 1e-12) {
		t.Errorf("p²(1-p²)=%v != p(1-p)=%v at the golden threshold", left, right)
	}
	// Strict inequality on either side.
	for _, eps := range []float64{-0.01, 0.01} {
		q := p + eps
		l := q * q * (1 - q*q)
		r := q * (1 - q)
		if eps < 0 && l >= r {
			t.Errorf("below threshold: p²(1-p²)=%v not < p(1-p)=%v", l, r)
		}
		if eps > 0 && l <= r {
			t.Errorf("above threshold: p²(1-p²)=%v not > p(1-p)=%v", l, r)
		}
	}
}

func TestPNoFaultHandComputed(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.3, Q: 0.1}, {P: 0.5, Q: 0.2}})
	p1, err := fs.PNoFault(1)
	if err != nil {
		t.Fatalf("PNoFault(1): %v", err)
	}
	if !almostEqual(p1, 0.7*0.5, 1e-15) {
		t.Errorf("P(N1=0) = %v, want 0.35", p1)
	}
	p2, err := fs.PNoFault(2)
	if err != nil {
		t.Fatalf("PNoFault(2): %v", err)
	}
	if !almostEqual(p2, 0.91*0.75, 1e-15) {
		t.Errorf("P(N2=0) = %v, want 0.6825", p2)
	}
	any2, err := fs.PAnyFault(2)
	if err != nil {
		t.Fatalf("PAnyFault(2): %v", err)
	}
	if !almostEqual(any2, 1-0.6825, 1e-15) {
		t.Errorf("P(N2>0) = %v, want 0.3175", any2)
	}
}

// TestRiskRatioAtMostOne verifies equation (10): the ratio of risks never
// exceeds 1 — diversity never hurts in this model.
func TestRiskRatioAtMostOne(t *testing.T) {
	t.Parallel()

	err := quick.Check(func(raw []byte) bool {
		fs := randomFaultSet(raw)
		if fs == nil {
			return true
		}
		ratio, err := fs.RiskRatio()
		if err != nil {
			// Degenerate all-zero case: acceptable.
			return true
		}
		return ratio >= 0 && ratio <= 1+1e-12
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

func TestRiskRatioHandComputed(t *testing.T) {
	t.Parallel()

	// Two faults with p1=0.1, p2=0.2:
	// P(N1>0) = 1-0.9*0.8 = 0.28, P(N2>0) = 1-0.99*0.96 = 0.0496.
	fs := mustNew(t, []Fault{{P: 0.1, Q: 0.1}, {P: 0.2, Q: 0.1}})
	ratio, err := fs.RiskRatio()
	if err != nil {
		t.Fatalf("RiskRatio: %v", err)
	}
	if !almostEqual(ratio, 0.0496/0.28, 1e-12) {
		t.Errorf("risk ratio = %v, want %v", ratio, 0.0496/0.28)
	}
}

func TestRiskRatioUndefinedForZeroSet(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0, Q: 0.1}})
	if _, err := fs.RiskRatio(); err == nil {
		t.Error("RiskRatio of zero-p set succeeded, want error")
	}
}

// TestSuccessRatioFootnote5 pins the closed form of footnote 5:
// P(N2=0)/P(N1=0) = Π(1+p_i).
func TestSuccessRatioFootnote5(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.1, Q: 0.1}, {P: 0.2, Q: 0.1}, {P: 0.35, Q: 0.1}})
	want := 1.1 * 1.2 * 1.35
	if got := fs.SuccessRatio(); !almostEqual(got, want, 1e-14) {
		t.Errorf("SuccessRatio = %v, want %v", got, want)
	}
	// Must equal the ratio of PNoFault values.
	p2, err := fs.PNoFault(2)
	if err != nil {
		t.Fatalf("PNoFault(2): %v", err)
	}
	p1, err := fs.PNoFault(1)
	if err != nil {
		t.Fatalf("PNoFault(1): %v", err)
	}
	if !almostEqual(fs.SuccessRatio(), p2/p1, 1e-12) {
		t.Errorf("SuccessRatio %v != P(N2=0)/P(N1=0) %v", fs.SuccessRatio(), p2/p1)
	}
	if fs.SuccessRatio() < 1 {
		t.Error("SuccessRatio must be >= 1")
	}
}

func TestMeanFaultCount(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.3, Q: 0.1}, {P: 0.5, Q: 0.2}})
	n1, err := fs.MeanFaultCount(1)
	if err != nil {
		t.Fatalf("MeanFaultCount(1): %v", err)
	}
	if !almostEqual(n1, 0.8, 1e-15) {
		t.Errorf("E[N1] = %v, want 0.8", n1)
	}
	n2, err := fs.MeanFaultCount(2)
	if err != nil {
		t.Fatalf("MeanFaultCount(2): %v", err)
	}
	if !almostEqual(n2, 0.09+0.25, 1e-15) {
		t.Errorf("E[N2] = %v, want 0.34", n2)
	}
}

// TestThreeVersionExtension checks the m=3 generalisation is coherent:
// means and risks decrease monotonically with m.
func TestThreeVersionExtension(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.3, Q: 0.1}, {P: 0.5, Q: 0.2}})
	prevMu := math.Inf(1)
	prevAny := math.Inf(1)
	for m := 1; m <= 4; m++ {
		mu, err := fs.MeanPFD(m)
		if err != nil {
			t.Fatalf("MeanPFD(%d): %v", m, err)
		}
		if mu >= prevMu {
			t.Errorf("µ_%d = %v not below µ_%d = %v", m, mu, m-1, prevMu)
		}
		prevMu = mu
		anyM, err := fs.PAnyFault(m)
		if err != nil {
			t.Fatalf("PAnyFault(%d): %v", m, err)
		}
		if anyM >= prevAny {
			t.Errorf("P(N_%d>0) = %v not below P(N_%d>0) = %v", m, anyM, m-1, prevAny)
		}
		prevAny = anyM
	}
}

func TestNormalApprox(t *testing.T) {
	t.Parallel()

	fs := mustNew(t, []Fault{{P: 0.3, Q: 0.1}, {P: 0.5, Q: 0.2}})
	approx, err := fs.NormalApprox(1)
	if err != nil {
		t.Fatalf("NormalApprox: %v", err)
	}
	mu, err := fs.MeanPFD(1)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	sigma, err := fs.SigmaPFD(1)
	if err != nil {
		t.Fatalf("SigmaPFD: %v", err)
	}
	if approx.Mu != mu || approx.Sigma != sigma {
		t.Errorf("NormalApprox = %+v, want Mu=%v Sigma=%v", approx, mu, sigma)
	}
}
