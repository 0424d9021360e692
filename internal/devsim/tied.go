package devsim

import (
	"fmt"
	"sync"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// TiedPairsProcess is the paper's Section-6.1 extreme of positive
// correlation: designated pairs of mistakes "can only occur together".
// Each tied pair is introduced (or avoided) as a unit, with the presence
// probability of its smaller index; untied faults are introduced
// independently as usual. The paper observes that such a process is
// exactly equivalent to the independent process over a universe in which
// each tied pair is merged into one fault with the union failure region —
// an equivalence experiment E24 verifies by simulation.
type TiedPairsProcess struct {
	fs *faultmodel.FaultSet
	// pairOf[i] is the partner index of fault i, or -1 for untied faults.
	// Only the smaller index of each pair drives the coin.
	pairOf []int

	// Row-kernel state, built lazily on first DevelopRows: one
	// integer Bernoulli threshold per driver fault.
	batchOnce  sync.Once
	thresholds []uint64
}

var _ Process = (*TiedPairsProcess)(nil)

// NewTiedPairsProcess builds the process. pairs lists index pairs to tie;
// indices must be in range, distinct, and appear in at most one pair. The
// presence probability of each pair is taken from its smaller index, so
// the order within a pair does not matter.
func NewTiedPairsProcess(fs *faultmodel.FaultSet, pairs [][2]int) (*TiedPairsProcess, error) {
	if fs == nil {
		return nil, fmt.Errorf("devsim: fault set must not be nil")
	}
	p := &TiedPairsProcess{fs: fs, pairOf: make([]int, fs.N())}
	for i := range p.pairOf {
		p.pairOf[i] = -1
	}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		if a < 0 || a >= fs.N() || b < 0 || b >= fs.N() {
			return nil, fmt.Errorf("devsim: tied pair (%d, %d) out of range [0, %d)", a, b, fs.N())
		}
		if a == b {
			return nil, fmt.Errorf("devsim: fault %d cannot be tied to itself", a)
		}
		if p.pairOf[a] != -1 || p.pairOf[b] != -1 {
			return nil, fmt.Errorf("devsim: fault in pair (%d, %d) already tied", a, b)
		}
		p.pairOf[a] = b
		p.pairOf[b] = a
	}
	return p, nil
}

// Develop develops one version: lane 0 of a one-lane DevelopRows.
func (p *TiedPairsProcess) Develop(r *randx.Stream) *Version { return develop(p, r) }

// FaultSet implements Process.
func (p *TiedPairsProcess) FaultSet() *faultmodel.FaultSet { return p.fs }
