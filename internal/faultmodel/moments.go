package faultmodel

import (
	"fmt"
	"math"

	"diversity/internal/stats"
)

// validateVersions checks the channel-count argument shared by the moment
// and bound methods. m = 1 is a single version; m = 2 is the paper's
// 1-out-of-2 system; larger m extends the model to 1-out-of-m diverse
// systems (a fault defeats the system only if present in all m versions,
// which happens with probability p_i^m under independent development).
func validateVersions(m int) error {
	if m < 1 {
		return fmt.Errorf("faultmodel: version count m=%d must be at least 1", m)
	}
	return nil
}

// MeanPFD returns E[Θ_m] = Σ p_i^m q_i — the paper's equation (1) with
// m = 1 (a random version) or m = 2 (the 1-out-of-2 system).
// It returns an error if m < 1.
func (fs *FaultSet) MeanPFD(m int) (float64, error) {
	if err := validateVersions(m); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, f := range fs.faults {
		sum += math.Pow(f.P, float64(m)) * f.Q
	}
	return sum, nil
}

// VarPFD returns Var[Θ_m] = Σ p_i^m (1 - p_i^m) q_i² — the square of the
// paper's equation (2). The PFD is a sum of independent scaled Bernoulli
// contributions, so variances add. It returns an error if m < 1.
func (fs *FaultSet) VarPFD(m int) (float64, error) {
	if err := validateVersions(m); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, f := range fs.faults {
		pm := math.Pow(f.P, float64(m))
		sum += pm * (1 - pm) * f.Q * f.Q
	}
	return sum, nil
}

// SigmaPFD returns the standard deviation σ(Θ_m), equation (2).
func (fs *FaultSet) SigmaPFD(m int) (float64, error) {
	v, err := fs.VarPFD(m)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// KurtosisPFD returns the excess kurtosis of Θ_m, κ4/κ2². Cumulants of
// independent contributions add, and a Bernoulli(π) scaled by q has
// κ2 = q² π(1-π) and κ4 = q⁴ π(1-π)(1-6π(1-π)). It is 0 when Θ_m has no
// variance, and it returns an error if m < 1.
func (fs *FaultSet) KurtosisPFD(m int) (float64, error) {
	if err := validateVersions(m); err != nil {
		return 0, err
	}
	var k2, k4 float64
	for _, f := range fs.faults {
		pm := math.Pow(f.P, float64(m))
		v := pm * (1 - pm)
		q2 := f.Q * f.Q
		k2 += v * q2
		k4 += v * (1 - 6*v) * q2 * q2
	}
	if k2 == 0 {
		return 0, nil
	}
	return k4 / (k2 * k2), nil
}

// MeanFaultCount returns E[N_m] = Σ p_i^m: the expected number of faults in
// a version (m = 1) or of common faults in an m-version system.
func (fs *FaultSet) MeanFaultCount(m int) (float64, error) {
	if err := validateVersions(m); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, f := range fs.faults {
		sum += math.Pow(f.P, float64(m))
	}
	return sum, nil
}

// NormalApprox returns the paper's Section-5 normal approximation
// N(µ_m, σ_m) to the distribution of Θ_m, justified by the central limit
// theorem when many independent fault contributions add up.
func (fs *FaultSet) NormalApprox(m int) (stats.Normal, error) {
	mu, err := fs.MeanPFD(m)
	if err != nil {
		return stats.Normal{}, err
	}
	sigma, err := fs.SigmaPFD(m)
	if err != nil {
		return stats.Normal{}, err
	}
	return stats.Normal{Mu: mu, Sigma: sigma}, nil
}

// PAnyFault returns P(N_m > 0) = 1 - Π(1 - p_i^m): the probability that a
// version (m = 1) has at least one fault, or that an m-version system has
// at least one common fault. This is the "risk" of Section 4.1.
func (fs *FaultSet) PAnyFault(m int) (float64, error) {
	p, err := fs.PNoFault(m)
	if err != nil {
		return 0, err
	}
	return 1 - p, nil
}

// PNoFault returns P(N_m = 0) = Π(1 - p_i^m): the probability of a
// fault-free version (m = 1) or of no common fault (m = 2) — the measure
// of interest for near-fault-free safety software (Section 4).
func (fs *FaultSet) PNoFault(m int) (float64, error) {
	if err := validateVersions(m); err != nil {
		return 0, err
	}
	prod := 1.0
	for _, f := range fs.faults {
		prod *= 1 - math.Pow(f.P, float64(m))
	}
	return prod, nil
}

// RiskRatio returns the paper's equation (10):
//
//	P(N_2 > 0) / P(N_1 > 0) = (1 - Π(1-p_i²)) / (1 - Π(1-p_i)).
//
// Small values mean a large benefit from diversity; the ratio never
// exceeds 1. It returns an error if every p_i is zero, in which case both
// probabilities vanish and the ratio is undefined.
func (fs *FaultSet) RiskRatio() (float64, error) {
	any1, err := fs.PAnyFault(1)
	if err != nil {
		return 0, err
	}
	if any1 == 0 {
		return 0, fmt.Errorf("faultmodel: risk ratio undefined: every fault has zero presence probability")
	}
	any2, err := fs.PAnyFault(2)
	if err != nil {
		return 0, err
	}
	return any2 / any1, nil
}

// SuccessRatio returns the footnote-5 ratio
//
//	P(N_2 = 0) / P(N_1 = 0) = Π(1 + p_i) >= 1,
//
// the factor by which diversity improves the probability of a completely
// fault-free outcome. The paper notes this measure is less informative than
// RiskRatio because the success probabilities are close to 1 anyway.
func (fs *FaultSet) SuccessRatio() float64 {
	prod := 1.0
	for _, f := range fs.faults {
		prod *= 1 + f.P
	}
	return prod
}
