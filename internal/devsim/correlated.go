package devsim

import (
	"fmt"
	"math"
	"sync"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// CommonCauseProcess induces positive correlation between the mistakes in
// one development (paper Section 6.1: "mistakes due to a common conceptual
// error"). A latent per-development "bad day" event occurs with probability
// Rho; conditional on it, every fault's presence probability is boosted by
// the factor Boost (clamped to 1), and on good days probabilities are
// lowered so that each fault's marginal presence probability remains
// exactly p_i. Thus single-version statistics with unstructured measures
// (mean fault count) are unchanged; only the joint structure shifts.
type CommonCauseProcess struct {
	fs  *faultmodel.FaultSet
	rho float64
	// hi and lo are the conditional presence probabilities on bad and
	// good days respectively.
	hi []float64
	lo []float64

	// Row-kernel state, built lazily on first DevelopRows: integer
	// Bernoulli thresholds for hi and lo (see BernoulliThreshold).
	batchOnce sync.Once
	thrHi     []uint64
	thrLo     []uint64
}

var _ Process = (*CommonCauseProcess)(nil)

// NewCommonCauseProcess builds a common-cause process over fs. rho is the
// probability of the common-cause condition and boost >= 1 the factor
// applied to each p_i under it. It returns an error if rho is outside
// [0, 1), boost < 1, or the marginal-preserving good-day probability of
// any fault would leave [0, 1].
func NewCommonCauseProcess(fs *faultmodel.FaultSet, rho, boost float64) (*CommonCauseProcess, error) {
	if math.IsNaN(rho) || rho < 0 || rho >= 1 {
		return nil, fmt.Errorf("devsim: common-cause probability rho=%v must be in [0, 1)", rho)
	}
	if math.IsNaN(boost) || boost < 1 {
		return nil, fmt.Errorf("devsim: common-cause boost=%v must be at least 1", boost)
	}
	p := &CommonCauseProcess{
		fs:  fs,
		rho: rho,
		hi:  make([]float64, fs.N()),
		lo:  make([]float64, fs.N()),
	}
	for i := 0; i < fs.N(); i++ {
		pi := fs.Fault(i).P
		hi := math.Min(1, pi*boost)
		var lo float64
		if rho == 0 {
			lo = pi
		} else {
			lo = (pi - rho*hi) / (1 - rho)
		}
		if lo < 0 {
			return nil, fmt.Errorf("devsim: fault %d: rho=%v boost=%v would need negative good-day probability to preserve the marginal p=%v", i, rho, boost, pi)
		}
		p.hi[i] = hi
		p.lo[i] = lo
	}
	return p, nil
}

// Develop develops one version: lane 0 of a one-lane DevelopRows.
func (p *CommonCauseProcess) Develop(r *randx.Stream) *Version { return develop(p, r) }

// FaultSet implements Process.
func (p *CommonCauseProcess) FaultSet() *faultmodel.FaultSet { return p.fs }

// ResourceShiftProcess induces negative correlation between competing
// fault classes (paper Section 6.1: "extra effort can be dedicated to
// avoiding certain classes of faults only at the expense of others").
// Faults are grouped into consecutive pairs; within each pair, every
// development independently favours one member — multiplying its presence
// probability by (1-shift) while the neglected member gets (1+shift) — so
// each fault's marginal probability is preserved while the pair's joint
// presence becomes anti-correlated. An unpaired trailing fault keeps its
// base probability.
type ResourceShiftProcess struct {
	fs    *faultmodel.FaultSet
	shift float64

	// Row-kernel state, built lazily on first DevelopRows: integer
	// Bernoulli thresholds at p·(1−shift) and p·(1+shift).
	batchOnce sync.Once
	thrFav    []uint64
	thrNeg    []uint64
}

var _ Process = (*ResourceShiftProcess)(nil)

// NewResourceShiftProcess builds a resource-shift process with the given
// shift fraction in [0, 1]. It returns an error if the boosted probability
// of any fault would exceed 1 (marginals could then not be preserved).
func NewResourceShiftProcess(fs *faultmodel.FaultSet, shift float64) (*ResourceShiftProcess, error) {
	if math.IsNaN(shift) || shift < 0 || shift > 1 {
		return nil, fmt.Errorf("devsim: resource shift=%v must be in [0, 1]", shift)
	}
	for i := 0; i < fs.N(); i++ {
		if boosted := fs.Fault(i).P * (1 + shift); boosted > 1 {
			return nil, fmt.Errorf("devsim: fault %d: shift=%v drives presence probability to %v > 1", i, shift, boosted)
		}
	}
	return &ResourceShiftProcess{fs: fs, shift: shift}, nil
}

// Develop develops one version: lane 0 of a one-lane DevelopRows.
func (p *ResourceShiftProcess) Develop(r *randx.Stream) *Version { return develop(p, r) }

// FaultSet implements Process.
func (p *ResourceShiftProcess) FaultSet() *faultmodel.FaultSet { return p.fs }
